//! The plain benchmark binary: every end-to-end number comes from here.

fn main() -> std::process::ExitCode {
    perfbench::main()
}
