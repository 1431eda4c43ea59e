//! Dirichlet boundary masks.
//!
//! The homogeneous Poisson problem of the paper (Section II) imposes `u = 0`
//! on the domain boundary.  In the local/matrix-free formulation this is done
//! by zeroing the boundary degrees of freedom of residuals and search
//! directions — the "mask" of Nekbone.

use crate::field::ElementField;
use crate::mesh::BoxMesh;
use serde::{Deserialize, Serialize};

/// The Dirichlet boundary of the local degrees of freedom, stored as the
/// constrained local indices only (the free ones are left untouched).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirichletMask {
    num_local: usize,
    /// Constrained (boundary) local indices, ascending.
    constrained: Vec<usize>,
}

impl DirichletMask {
    /// Build the mask for the whole boundary of a box mesh.
    #[must_use]
    pub fn from_mesh(mesh: &BoxMesh) -> Self {
        let nx = mesh.points_per_direction();
        let mut constrained = Vec::new();
        let mut l = 0;
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        if mesh.is_boundary_node(e, i, j, k) {
                            constrained.push(l);
                        }
                        l += 1;
                    }
                }
            }
        }
        Self {
            num_local: mesh.num_local_dofs(),
            constrained,
        }
    }

    /// A mask that keeps every degree of freedom (no Dirichlet boundary), for
    /// pure-Neumann or periodic experiments.
    #[must_use]
    pub fn none(degree: usize, num_elements: usize) -> Self {
        Self {
            num_local: sem_basis::dofs_per_element(degree) * num_elements,
            constrained: Vec::new(),
        }
    }

    /// Apply the mask in place: boundary values are zeroed (multiplied by
    /// zero, so the sign of zero matches a dense 0/1 multiply).
    // lint: alloc-free (every CG iteration masks the residual)
    pub fn apply(&self, field: &mut ElementField) {
        assert_eq!(field.len(), self.num_local, "field size mismatch");
        let data = field.as_mut_slice();
        for &i in &self.constrained {
            data[i] *= 0.0;
        }
    }

    /// Number of constrained (boundary) local degrees of freedom.
    #[must_use]
    pub fn num_constrained(&self) -> usize {
        self.constrained.len()
    }

    /// Number of free local degrees of freedom.
    #[must_use]
    pub fn num_free(&self) -> usize {
        self.num_local - self.constrained.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element_mask_keeps_only_interior() {
        let mesh = BoxMesh::unit_cube(4, 1);
        let mask = DirichletMask::from_mesh(&mesh);
        // Interior points per direction: N - 1 = 3, so 27 free nodes.
        assert_eq!(mask.num_free(), 27);
        assert_eq!(mask.num_constrained(), 125 - 27);
    }

    #[test]
    fn apply_zeroes_the_boundary() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let mask = DirichletMask::from_mesh(&mesh);
        let mut f = ElementField::constant(3, 8, 2.5);
        mask.apply(&mut f);
        let nx = 4;
        for e in 0..8 {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        let expect = if mesh.is_boundary_node(e, i, j, k) {
                            0.0
                        } else {
                            2.5
                        };
                        assert_eq!(f.at(e, i, j, k), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_apply_matches_the_dense_zero_one_multiply_bitwise() {
        let mesh = BoxMesh::unit_cube(4, 2);
        let mask = DirichletMask::from_mesh(&mesh);
        let nx = mesh.points_per_direction();
        let mut dense = Vec::new();
        for e in 0..mesh.num_elements() {
            for k in 0..nx {
                for j in 0..nx {
                    for i in 0..nx {
                        dense.push(if mesh.is_boundary_node(e, i, j, k) {
                            0.0
                        } else {
                            1.0
                        });
                    }
                }
            }
        }
        // Negative values and signed zeros: `x * 0.0` keeps the sign bit.
        let mut state = 0x2545_f491_u64;
        let mut f = ElementField::zeros(4, 8);
        f.fill_with(|_, _, _, _| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            match state >> 62 {
                0 => -0.0,
                _ => (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5,
            }
        });
        let mut expect = f.clone();
        for (v, &m) in expect.as_mut_slice().iter_mut().zip(&dense) {
            *v *= m;
        }
        mask.apply(&mut f);
        let bits = |f: &ElementField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&f), bits(&expect));
        assert_eq!(
            mask.num_constrained(),
            dense.iter().filter(|&&m| m == 0.0).count()
        );
    }

    #[test]
    fn none_mask_is_identity() {
        let mut f = ElementField::constant(2, 4, 3.0);
        let mask = DirichletMask::none(2, 4);
        mask.apply(&mut f);
        assert!(f.as_slice().iter().all(|&v| v == 3.0));
        assert_eq!(mask.num_constrained(), 0);
    }

    #[test]
    fn free_count_matches_interior_global_nodes_for_unit_multiplicity() {
        // For one element the free local nodes equal the interior global nodes.
        let mesh = BoxMesh::unit_cube(5, 1);
        let mask = DirichletMask::from_mesh(&mesh);
        assert_eq!(mask.num_free(), (5 - 1) * (5 - 1) * (5 - 1));
    }
}
