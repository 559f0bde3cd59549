//! QAOA variational parameters.
//!
//! A `p`-layer QAOA ansatz has `p` cost angles `γ` and `p` mixer angles `β`
//! (Equation 3). The canonical parameter domain used throughout the paper's
//! landscape figures is `γ ∈ [0, 2π)` and `β ∈ [0, π)`.

use crate::QaoaError;
use rand::Rng;

/// Upper bound of the γ range used for landscapes and random sampling.
pub const GAMMA_MAX: f64 = 2.0 * std::f64::consts::PI;
/// Upper bound of the β range used for landscapes and random sampling.
pub const BETA_MAX: f64 = std::f64::consts::PI;

/// The `(γ, β)` angles of a `p`-layer QAOA circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaParams {
    /// Cost-layer angles, one per layer.
    pub gammas: Vec<f64>,
    /// Mixer-layer angles, one per layer.
    pub betas: Vec<f64>,
}

impl QaoaParams {
    /// Creates a parameter set from explicit angle vectors.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] if the vectors are empty or
    /// have different lengths.
    pub fn new(gammas: Vec<f64>, betas: Vec<f64>) -> Result<Self, QaoaError> {
        if gammas.is_empty() || gammas.len() != betas.len() {
            return Err(QaoaError::InvalidParameters(
                "gammas and betas must be non-empty and the same length",
            ));
        }
        Ok(Self { gammas, betas })
    }

    /// Number of QAOA layers `p`.
    pub fn layers(&self) -> usize {
        self.gammas.len()
    }

    /// Flattens to `[γ_1 … γ_p, β_1 … β_p]` (the layout used by the classical
    /// optimizers).
    pub fn to_flat(&self) -> Vec<f64> {
        let mut flat = self.gammas.clone();
        flat.extend_from_slice(&self.betas);
        flat
    }

    /// Rebuilds parameters from the flattened layout.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidParameters`] if the slice length is not an
    /// even, positive number.
    pub fn from_flat(flat: &[f64]) -> Result<Self, QaoaError> {
        if flat.is_empty() || flat.len() % 2 != 0 {
            return Err(QaoaError::InvalidParameters(
                "flattened parameters must have even, positive length",
            ));
        }
        let p = flat.len() / 2;
        Ok(Self {
            gammas: flat[..p].to_vec(),
            betas: flat[p..].to_vec(),
        })
    }

    /// Overwrites the angles with the flattened layout
    /// `[γ_1 … γ_p, β_1 … β_p]`, keeping the layer count: the allocation-free
    /// counterpart of [`QaoaParams::from_flat`] for optimizer loops.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != 2 · self.layers()`.
    pub fn copy_from_flat(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), 2 * self.layers(), "flattened shape mismatch");
        let (gammas, betas) = flat.split_at(self.layers());
        self.gammas.copy_from_slice(gammas);
        self.betas.copy_from_slice(betas);
    }

    /// Samples uniformly random parameters in the canonical domain.
    pub fn random<R: Rng>(layers: usize, rng: &mut R) -> Self {
        assert!(layers > 0, "layers must be positive");
        Self {
            gammas: (0..layers).map(|_| rng.gen_range(0.0..GAMMA_MAX)).collect(),
            betas: (0..layers).map(|_| rng.gen_range(0.0..BETA_MAX)).collect(),
        }
    }

    /// Euclidean distance to another parameter set of the same shape, with
    /// each angle difference wrapped onto its periodic domain (γ modulo 2π,
    /// β modulo π). Used for the optimal-point-distance study (Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if the two parameter sets have different layer counts.
    pub fn periodic_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.layers(), other.layers(), "layer count mismatch");
        let wrap = |d: f64, period: f64| {
            let d = d.abs() % period;
            d.min(period - d)
        };
        let mut sum = 0.0;
        for (a, b) in self.gammas.iter().zip(&other.gammas) {
            let d = wrap(a - b, GAMMA_MAX);
            sum += d * d;
        }
        for (a, b) in self.betas.iter().zip(&other.betas) {
            let d = wrap(a - b, BETA_MAX);
            sum += d * d;
        }
        sum.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::rng::seeded;

    #[test]
    fn construction_validates_shapes() {
        assert!(QaoaParams::new(vec![0.1], vec![0.2]).is_ok());
        assert!(QaoaParams::new(vec![], vec![]).is_err());
        assert!(QaoaParams::new(vec![0.1, 0.2], vec![0.3]).is_err());
    }

    #[test]
    fn flat_roundtrip() {
        let p = QaoaParams::new(vec![0.1, 0.2], vec![0.3, 0.4]).unwrap();
        let flat = p.to_flat();
        assert_eq!(flat, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(QaoaParams::from_flat(&flat).unwrap(), p);
        assert!(QaoaParams::from_flat(&[0.1]).is_err());
        assert!(QaoaParams::from_flat(&[]).is_err());
        let mut q = QaoaParams::new(vec![0.0, 0.0], vec![0.0, 0.0]).unwrap();
        q.copy_from_flat(&flat);
        assert_eq!(q, p);
    }

    #[test]
    fn random_parameters_respect_domain() {
        let mut rng = seeded(3);
        for _ in 0..50 {
            let p = QaoaParams::random(3, &mut rng);
            assert_eq!(p.layers(), 3);
            assert!(p.gammas.iter().all(|&g| (0.0..GAMMA_MAX).contains(&g)));
            assert!(p.betas.iter().all(|&b| (0.0..BETA_MAX).contains(&b)));
        }
    }

    #[test]
    fn periodic_distance_wraps() {
        let a = QaoaParams::new(vec![0.05], vec![0.05]).unwrap();
        let b = QaoaParams::new(vec![GAMMA_MAX - 0.05], vec![BETA_MAX - 0.05]).unwrap();
        // Both angles are 0.1 apart across the wrap-around.
        let d = a.periodic_distance(&b);
        assert!(
            (d - (0.1f64 * 0.1 + 0.1 * 0.1).sqrt()).abs() < 1e-9,
            "d={d}"
        );
        assert_eq!(a.periodic_distance(&a), 0.0);
    }
}
