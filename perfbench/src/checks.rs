//! Output checks against independent references.
//!
//! Every check also runs on a deliberately corrupted copy of the output
//! it was given and must reject it; a check that cannot see the
//! corruption counts as failed, so a vacuous check never passes.

/// One check's verdict.
pub struct Verdict {
    pub name: String,
    pub error: Option<String>,
}

#[derive(Default)]
pub struct Checks {
    pub verdicts: Vec<Verdict>,
}

fn bytes_equal(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != reference {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        Some(i) => Err(format!("first difference at byte {i}")),
        None if got.is_empty() => Err("empty output".into()),
        None => Ok(()),
    }
}

fn floats_equal(got: &[f64], want: &[f64], rel_tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != reference {}", got.len(), want.len()));
    }
    if got.is_empty() {
        return Err("empty output".into());
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let same = a.to_bits() == b.to_bits() || (a - b).abs() <= rel_tol * a.abs().max(b.abs());
        if !same {
            return Err(format!("element {i}: {a} != reference {b}"));
        }
    }
    Ok(())
}

/// An FDR sweep must match its reference and be non-zero somewhere
/// (otherwise the threshold sweep exercised nothing).
fn fdr_sweep_ok(got: &[f64], want: &[f64]) -> Result<(), String> {
    floats_equal(got, want, 1e-12)?;
    if !got.iter().any(|v| v.is_finite() && *v > 0.0) {
        return Err("FDR is zero or undefined at every threshold".into());
    }
    Ok(())
}

impl Checks {
    fn push(&mut self, name: &str, result: Result<(), String>, corrupted: Result<(), String>) {
        let error = match (result, corrupted) {
            (Err(e), _) => Some(e),
            (Ok(()), Ok(())) => Some("self-test: a corrupted output also passed".into()),
            (Ok(()), Err(_)) => None,
        };
        self.verdicts.push(Verdict {
            name: name.to_string(),
            error,
        });
    }

    /// `got` must equal `want` byte for byte.
    pub fn bytes(&mut self, name: &str, got: &[u8], want: &[u8]) {
        let mut bad = got.to_vec();
        if let Some(b) = bad.get_mut(got.len() / 2) {
            *b ^= 0x01;
        }
        self.push(name, bytes_equal(got, want), bytes_equal(&bad, want));
    }

    /// `got` must equal `want` element-wise within `rel_tol`.
    pub fn floats(&mut self, name: &str, got: &[f64], want: &[f64], rel_tol: f64) {
        let mut bad = got.to_vec();
        if let Some(v) = bad.get_mut(got.len() / 2) {
            *v = *v * (1.0 + 1e-6) + 1e-6;
        }
        self.push(
            name,
            floats_equal(got, want, rel_tol),
            floats_equal(&bad, want, rel_tol),
        );
    }

    /// A parallel FDR sweep against its sequential reference.
    pub fn fdr_sweep(&mut self, name: &str, got: &[f64], want: &[f64]) {
        let zeroed = vec![0.0; got.len()];
        self.push(
            name,
            fdr_sweep_ok(got, want),
            fdr_sweep_ok(&zeroed, &zeroed),
        );
    }

    pub fn failed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.error.is_some()).count()
    }

    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Prints one line per check to standard error.
    pub fn report(&self) {
        for v in &self.verdicts {
            match &v.error {
                None => eprintln!("check ok     {}", v.name),
                Some(e) => eprintln!("check FAILED {}: {e}", v.name),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_check_accepts_equal_outputs_and_rejects_corrupted_ones() {
        let mut c = Checks::default();
        c.bytes("same", b"abcdef", b"abcdef");
        c.floats("same", &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], 0.0);
        c.fdr_sweep("same", &[0.0, 0.5, 1.0], &[0.0, 0.5, 1.0]);
        assert_eq!(c.failed(), 0);

        c.bytes("differs", b"abcdef", b"abcdeg");
        c.bytes("truncated", b"abcde", b"abcdef");
        c.bytes("empty", b"", b"");
        c.floats("differs", &[1.0, 2.0], &[1.0, 2.5], 1e-9);
        c.fdr_sweep("all zero", &[0.0, 0.0], &[0.0, 0.0]);
        c.fdr_sweep("differs", &[0.0, 0.4], &[0.0, 0.5]);
        assert_eq!(c.failed(), 6);
    }
}
