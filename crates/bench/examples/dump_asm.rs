use wolfram_bench::{programs, workloads};
use wolfram_compiler_core::Compiler;
use wolfram_expr::parse;

fn main() {
    let compiler = Compiler::default();
    for (name, src) in [
        ("FNV1a", programs::FNV1A_SRC.to_string()),
        ("Mandelbrot", programs::MANDELBROT_SRC.to_string()),
        ("Histogram", programs::HISTOGRAM_SRC.to_string()),
        ("Blur", programs::BLUR_SRC.to_string()),
        ("QSort", programs::QSORT_SRC.to_string()),
        (
            "PrimeQ",
            programs::primeq_src(&workloads::prime_seed_table()),
        ),
    ] {
        let f = parse(&src).unwrap();
        let asm = compiler.export_string(&f, "Assembler").unwrap();
        println!("==== {name} ====\n{asm}");
    }
}
