//! Small dense-vector helpers shared by the iterative solvers.
//!
//! These are free functions rather than a vector newtype: solver inner
//! loops want to operate on plain `&[f64]` buffers owned by the caller
//! (C-CALLER-CONTROL), and a wrapper type would add nothing but noise.

/// Elements per reduction chunk. Fixed so that chunk boundaries (and
/// therefore the order of floating-point accumulation) never depend on
/// the thread count: `dot`/`norm2` are bitwise identical at any
/// parallelism, and for inputs up to one chunk identical to a plain
/// serial fold.
const REDUCE_CHUNK: usize = 8192;

/// Elements per elementwise-update chunk (`axpy`/`xpby`). These kernels
/// touch each element independently, so chunking only bounds task size.
const UPDATE_CHUNK: usize = 16384;

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    irf_runtime::par_reduce(
        x.len(),
        REDUCE_CHUNK,
        0.0,
        |r| {
            x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, b)| a * b)
                .sum::<f64>()
        },
        |a, b| a + b,
    )
}

/// Euclidean (L2) norm.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    irf_runtime::par_chunks_mut(y, UPDATE_CHUNK, |ci, yc| {
        let base = ci * UPDATE_CHUNK;
        for (yi, xi) in yc.iter_mut().zip(&x[base..]) {
            *yi += alpha * xi;
        }
    });
}

/// `y = x + beta * y` (the update used for CG search directions).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    irf_runtime::par_chunks_mut(y, UPDATE_CHUNK, |ci, yc| {
        let base = ci * UPDATE_CHUNK;
        for (yi, xi) in yc.iter_mut().zip(&x[base..]) {
            *yi = xi + beta * *yi;
        }
    });
}

/// Copies `src` into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_simple() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm2_pythagoras() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn xpby_updates_direction() {
        let mut y = vec![1.0, 2.0];
        xpby(&[10.0, 10.0], 0.5, &mut y);
        assert_eq!(y, vec![10.5, 11.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
