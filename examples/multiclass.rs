//! Beyond good/bad: the paper's §7 future work — predicting *more than
//! two* ordered performance classes (e.g. bad / fair / good /
//! excellent) with the same decentralized machinery.
//!
//! ```sh
//! cargo run --release --example multiclass
//! ```

use dmfsgd::core::provider::MulticlassLabels;
use dmfsgd::core::{ConfigError, Loss, Session};
use dmfsgd::datasets::rtt::meridian_like;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 200;
    let dataset = meridian_like(n, 17);

    for classes in [2u8, 3, 4, 5] {
        // Quantile class boundaries: equal-mass classes, quality-ordered
        // (class 1 = slowest paths, class C = fastest).
        let mut labels = MulticlassLabels::quantiles(&dataset, classes);
        // The same session as the binary case: only the loss changes.
        let mut session = Session::builder()
            .nodes(n)
            .loss(Loss::Ordinal { classes })
            .seed(u64::from(classes))
            .build()?;
        session.run(n * 10 * 40, &mut labels)?;
        let (exact, within_one, mae) = labels.evaluate(&session);
        println!(
            "C={classes}: exact accuracy {:>5.1}%  (chance {:>4.1}%)   \
             within-one {:>5.1}%   mean |Δclass| {:.2}",
            exact * 100.0,
            100.0 / f64::from(classes),
            within_one * 100.0,
            mae
        );
    }

    // One class is no ordering: the builder refuses it with a typed
    // error instead of panicking.
    let refused = Session::builder()
        .nodes(n)
        .loss(Loss::Ordinal { classes: 1 })
        .build()
        .expect_err("one class is refused");
    assert_eq!(refused, ConfigError::Classes { classes: 1 });
    println!("\nC=1: refused ({refused})");

    println!(
        "\ntakeaway: the ordinal extension needs no protocol change — the\n\
         measurement is still one coarse probe, just quantized into more\n\
         than two bins; accuracy degrades gracefully with class count."
    );
    Ok(())
}
