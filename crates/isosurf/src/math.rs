//! Minimal 3-D vector / 4×4 matrix math for the rendering pipeline.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-component f32 vector (points and directions).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

/// Shorthand constructor.
pub const fn vec3(x: f32, y: f32, z: f32) -> Vec3 {
    Vec3 { x, y, z }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = vec3(0.0, 0.0, 0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector in this direction; returns `ZERO` for (near-)zero input.
    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        if l <= 1e-12 {
            Vec3::ZERO
        } else {
            self / l
        }
    }

    /// Component-wise linear interpolation: `self + t * (o - self)`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f32) -> Vec3 {
        self + (o - self) * t
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        vec3(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        vec3(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f32) -> Vec3 {
        vec3(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f32) -> Vec3 {
        vec3(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        vec3(-self.x, -self.y, -self.z)
    }
}

/// A column-major 4×4 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns.
    pub cols: [[f32; 4]; 4],
}

impl Mat4 {
    /// Identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        cols: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// Right-handed look-at view matrix (world → view).
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let f = (target - eye).normalized(); // forward
        let s = f.cross(up).normalized(); // right
        let u = s.cross(f); // corrected up
        Mat4 {
            cols: [
                [s.x, u.x, -f.x, 0.0],
                [s.y, u.y, -f.y, 0.0],
                [s.z, u.z, -f.z, 0.0],
                [-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0],
            ],
        }
    }

    /// Matrix product `self * o`.
    pub fn mul_mat(&self, o: &Mat4) -> Mat4 {
        let mut cols = [[0.0f32; 4]; 4];
        for (c, col) in cols.iter_mut().enumerate() {
            for (r, cell) in col.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.cols[k][r] * o.cols[c][k]).sum();
            }
        }
        Mat4 { cols }
    }

    /// Transform a point (w = 1), returning the xyz of the result (no
    /// perspective divide — use for affine matrices).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let c = &self.cols;
        vec3(
            c[0][0] * p.x + c[1][0] * p.y + c[2][0] * p.z + c[3][0],
            c[0][1] * p.x + c[1][1] * p.y + c[2][1] * p.z + c[3][1],
            c[0][2] * p.x + c[1][2] * p.y + c[2][2] * p.z + c[3][2],
        )
    }

    /// Transform a direction (w = 0).
    pub fn transform_vec(&self, v: Vec3) -> Vec3 {
        let c = &self.cols;
        vec3(
            c[0][0] * v.x + c[1][0] * v.y + c[2][0] * v.z,
            c[0][1] * v.x + c[1][1] * v.y + c[2][1] * v.z,
            c[0][2] * v.x + c[1][2] * v.y + c[2][2] * v.z,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).length() < 1e-5
    }

    #[test]
    fn vector_algebra() {
        let a = vec3(1.0, 2.0, 3.0);
        let b = vec3(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a.cross(b), vec3(-3.0, 6.0, -3.0));
        assert!((vec3(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-6);
        assert!(close(a.lerp(b, 0.5), vec3(2.5, 3.5, 4.5)));
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        assert!((vec3(0.0, 0.0, 2.0).normalized().z - 1.0).abs() < 1e-6);
    }

    #[test]
    fn look_at_maps_eye_to_origin() {
        let m = Mat4::look_at(
            vec3(5.0, 3.0, 2.0),
            vec3(0.0, 0.0, 0.0),
            vec3(0.0, 1.0, 0.0),
        );
        assert!(close(m.transform_point(vec3(5.0, 3.0, 2.0)), Vec3::ZERO));
    }

    #[test]
    fn look_at_target_is_on_negative_z() {
        let eye = vec3(0.0, 0.0, 10.0);
        let m = Mat4::look_at(eye, Vec3::ZERO, vec3(0.0, 1.0, 0.0));
        let t = m.transform_point(Vec3::ZERO);
        assert!(
            t.z < 0.0,
            "target should be in front (negative z), got {t:?}"
        );
        assert!(t.x.abs() < 1e-5 && t.y.abs() < 1e-5);
    }

    #[test]
    fn identity_multiplication() {
        let m = Mat4::look_at(vec3(1.0, 2.0, 3.0), Vec3::ZERO, vec3(0.0, 1.0, 0.0));
        let p = vec3(0.3, -0.7, 2.0);
        assert!(close(
            m.mul_mat(&Mat4::IDENTITY).transform_point(p),
            m.transform_point(p)
        ));
        assert!(close(
            Mat4::IDENTITY.mul_mat(&m).transform_point(p),
            m.transform_point(p)
        ));
    }

    #[test]
    fn transform_vec_ignores_translation() {
        let m = Mat4::look_at(
            vec3(100.0, 0.0, 0.0),
            vec3(101.0, 0.0, 0.0),
            vec3(0.0, 1.0, 0.0),
        );
        let v = m.transform_vec(vec3(0.0, 1.0, 0.0));
        assert!((v.length() - 1.0).abs() < 1e-5);
    }
}
