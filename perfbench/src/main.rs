//! Untraced benchmark run (`--trace 0`): end-to-end metrics on the plain
//! system allocator.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
