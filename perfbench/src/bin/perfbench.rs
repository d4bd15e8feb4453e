//! Untraced benchmark run: produces the end-to-end metrics.

fn main() {
    std::process::exit(rotom_perfbench::main_with(false));
}
