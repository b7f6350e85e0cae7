//! The claims ledger at smoke scale: every row that expects a smoke
//! verdict (✅ or ❌) reaches it over ten paired seeds.

use fedwcm_experiments::claims::LEDGER;
use fedwcm_experiments::{Cli, Scale};

#[test]
fn smoke_verdicts_match_over_ten_paired_seeds() {
    let cli = Cli {
        scale: Scale::Smoke,
        trials: 10,
        ..Cli::default()
    };
    let mut wrong = Vec::new();
    for claim in LEDGER.iter().filter(|c| c.smoke.is_some()) {
        let (verdict, line) = claim.run(&cli);
        if Some(verdict) != claim.smoke {
            wrong.push(format!("{line} expected {:?}", claim.smoke));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
