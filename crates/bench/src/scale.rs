//! Experiment sizing.

/// Controls experiment sizes: the paper ran 150M-item streams with `q`
/// up to 10⁷ on a 128 GB server; the default here is roughly a tenth of
/// that so the full suite regenerates on a laptop in tens of minutes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on stream lengths (1.0 = default scaled runs).
    pub factor: f64,
    /// Include the paper's largest configurations (`q = 10⁷`,
    /// 150M-item streams). Requires a few GB of RAM and much more time.
    pub full: bool,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            factor: 1.0,
            full: false,
        }
    }
}

impl Scale {
    /// Scales a default stream length.
    pub fn stream(&self, base: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(1000)
    }

    /// The reservoir sizes swept by the q-sweeps.
    pub fn qs(&self) -> Vec<usize> {
        if self.full {
            vec![10_000, 100_000, 1_000_000, 10_000_000]
        } else {
            vec![10_000, 100_000, 1_000_000]
        }
    }

    /// The γ values swept by the γ-sweeps (the paper's Table 1 set).
    pub fn gammas(&self) -> Vec<f64> {
        vec![0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
    }
}

/// Parses a `--scale` value: a finite number greater than zero. `None`
/// for anything else (a non-number, NaN, an infinity, zero or a negative
/// value), which the `figures` CLI rejects with its usage text.
pub fn parse_factor(v: &str) -> Option<f64> {
    v.parse::<f64>().ok().filter(|f| f.is_finite() && *f > 0.0)
}

#[cfg(test)]
mod tests {
    use super::parse_factor;

    #[test]
    fn parse_factor_accepts_positive_finite_numbers() {
        assert_eq!(parse_factor("0.1"), Some(0.1));
        assert_eq!(parse_factor("2"), Some(2.0));
        assert_eq!(parse_factor("1e-3"), Some(1e-3));
    }

    #[test]
    fn parse_factor_rejects_everything_else() {
        for v in [
            "", "abc", "0", "-1", "-0.0", "inf", "-inf", "infinity", "NaN", "1.0x",
        ] {
            assert_eq!(parse_factor(v), None, "{v:?}");
        }
    }
}
