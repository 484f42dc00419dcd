fn main() {
    std::process::exit(perfbench::main_with(std::env::args().skip(1).collect()));
}
