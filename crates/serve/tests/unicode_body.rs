//! A request body that escapes a non-BMP character the way most JSON
//! encoders do (a `😀` surrogate pair, e.g. Python's default
//! `json.dumps({"inputs": ["café 😀"]})`) is a valid request: the server
//! answers 200, and scores it exactly like the same text sent raw.

use rotom_serve::json;
use rotom_serve::{Client, Server, ServerConfig};
use std::time::Duration;

#[test]
fn surrogate_pair_escapes_in_a_body_score_like_raw_text() {
    let server = Server::start(ServerConfig {
        window: Duration::from_millis(1),
        score_cache: 0,
        seed: 5,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let escaped = client
        .post("/match", r#"{"inputs": ["caf\u00e9 \ud83d\ude00"]}"#)
        .expect("escaped request");
    assert_eq!(escaped.status, 200, "{}", escaped.body);
    let raw = client
        .post(
            "/match",
            &format!("{{\"inputs\": [{}]}}", json::quote("café 😀")),
        )
        .expect("raw request");
    assert_eq!(raw.status, 200, "{}", raw.body);

    let scores = |body: &str| json::parse_scores(json::parse(body).unwrap().get("scores").unwrap());
    assert_eq!(scores(&escaped.body), scores(&raw.body));
    server.shutdown();
}
