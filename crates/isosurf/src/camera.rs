//! Camera: world → screen transform for the raster filters.

use serde::{Deserialize, Serialize};

use crate::math::{vec3, Mat4, Vec3};

/// A perspective camera with an integer viewport.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Camera {
    /// Eye position, world coordinates.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Up hint.
    pub up: Vec3,
    /// Vertical field of view, degrees.
    pub fovy_deg: f32,
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
    /// Near-plane distance; geometry closer than this is rejected.
    pub near: f32,
}

/// A vertex after projection: screen position plus view-space depth.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScreenVertex {
    /// Screen x, pixels (may fall outside the viewport before clipping).
    pub x: f32,
    /// Screen y, pixels (y grows downward).
    pub y: f32,
    /// View-space depth (distance along the view axis; larger = farther).
    pub depth: f32,
}

impl Camera {
    /// A camera looking at the center of a `dims`-point grid from a
    /// three-quarter direction, framed to contain the whole volume. The
    /// standard viewpoint for the experiments.
    pub fn framing(dims: volume::Dims, width: u32, height: u32) -> Camera {
        let c = vec3(
            (dims.nx - 1) as f32 / 2.0,
            (dims.ny - 1) as f32 / 2.0,
            (dims.nz - 1) as f32 / 2.0,
        );
        let radius = c.length(); // half-diagonal
        let dir = vec3(1.0, 0.8, 1.2).normalized();
        // Distance such that the bounding sphere fits a 30-degree fov:
        // r / tan(15 deg) ~= 3.73 r, plus margin.
        Camera {
            eye: c + dir * (radius * 4.0),
            target: c,
            up: vec3(0.0, 1.0, 0.0),
            fovy_deg: 30.0,
            width,
            height,
            near: 0.1,
        }
    }

    /// The world → view matrix.
    pub fn view_matrix(&self) -> Mat4 {
        Mat4::look_at(self.eye, self.target, self.up)
    }

    /// Precompute the projection constants used by
    /// [`Projector::project`].
    pub fn projector(&self) -> Projector {
        let f = 1.0 / (self.fovy_deg.to_radians() / 2.0).tan();
        Projector {
            view: self.view_matrix(),
            fx: f * self.height as f32 / 2.0, // square pixels
            fy: f * self.height as f32 / 2.0,
            cx: self.width as f32 / 2.0,
            cy: self.height as f32 / 2.0,
            near: self.near,
        }
    }
}

/// Cached world→screen projection.
#[derive(Debug, Clone, Copy)]
pub struct Projector {
    view: Mat4,
    fx: f32,
    fy: f32,
    cx: f32,
    cy: f32,
    near: f32,
}

impl Projector {
    /// Project a world-space point; `None` when at/behind the near plane.
    #[inline]
    pub fn project(&self, p: Vec3) -> Option<ScreenVertex> {
        let (s, behind) = self.project_any(p);
        (!behind).then_some(s)
    }

    /// Project a world-space point without a branch: the screen vertex,
    /// and whether it is behind the near plane (`depth < near`, so a NaN
    /// depth is not).
    #[inline(always)]
    pub(crate) fn project_any(&self, p: Vec3) -> (ScreenVertex, bool) {
        let v = self.view.transform_point(p);
        let depth = -v.z; // camera looks down -z in view space
        let s = ScreenVertex {
            x: self.cx + self.fx * v.x / depth,
            y: self.cy - self.fy * v.y / depth,
            depth,
        };
        (s, depth < self.near)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volume::Dims;

    fn cam() -> Camera {
        Camera {
            eye: vec3(0.0, 0.0, 10.0),
            target: Vec3::ZERO,
            up: vec3(0.0, 1.0, 0.0),
            fovy_deg: 90.0,
            width: 200,
            height: 100,
            near: 0.1,
        }
    }

    #[test]
    fn target_projects_to_center() {
        let p = cam().projector();
        let s = p.project(Vec3::ZERO).unwrap();
        assert!((s.x - 100.0).abs() < 1e-3);
        assert!((s.y - 50.0).abs() < 1e-3);
        assert!((s.depth - 10.0).abs() < 1e-4);
    }

    #[test]
    fn behind_camera_is_rejected() {
        let p = cam().projector();
        assert!(p.project(vec3(0.0, 0.0, 20.0)).is_none());
        assert!(p.project(vec3(0.0, 0.0, 9.85)).is_some()); // 0.15 > near
        assert!(p.project(vec3(0.0, 0.0, 9.95)).is_none()); // 0.05 < near
    }

    #[test]
    fn up_is_up_on_screen() {
        let p = cam().projector();
        let above = p.project(vec3(0.0, 1.0, 0.0)).unwrap();
        let below = p.project(vec3(0.0, -1.0, 0.0)).unwrap();
        assert!(above.y < below.y, "screen y grows downward");
    }

    #[test]
    fn right_is_right_on_screen() {
        let p = cam().projector();
        // Camera at +z looking at the origin with +y up: world +x appears
        // to the right.
        let right = p.project(vec3(1.0, 0.0, 0.0)).unwrap();
        let left = p.project(vec3(-1.0, 0.0, 0.0)).unwrap();
        assert!(right.x > left.x);
    }

    #[test]
    fn nearer_points_have_smaller_depth() {
        let p = cam().projector();
        let near = p.project(vec3(0.0, 0.0, 5.0)).unwrap();
        let far = p.project(vec3(0.0, 0.0, -5.0)).unwrap();
        assert!(near.depth < far.depth);
    }

    #[test]
    fn framing_contains_volume_corners() {
        let dims = Dims::new(33, 33, 65);
        let cam = Camera::framing(dims, 256, 256);
        let p = cam.projector();
        for &corner in &[
            vec3(0.0, 0.0, 0.0),
            vec3(32.0, 0.0, 0.0),
            vec3(0.0, 32.0, 0.0),
            vec3(0.0, 0.0, 64.0),
            vec3(32.0, 32.0, 64.0),
        ] {
            let s = p.project(corner).expect("corner in front of camera");
            assert!(s.x >= 0.0 && s.x <= 256.0, "x {} out of frame", s.x);
            assert!(s.y >= 0.0 && s.y <= 256.0, "y {} out of frame", s.y);
        }
    }

    #[test]
    fn perspective_shrinks_with_distance() {
        let p = cam().projector();
        let near_span =
            p.project(vec3(1.0, 0.0, 5.0)).unwrap().x - p.project(vec3(-1.0, 0.0, 5.0)).unwrap().x;
        let far_span = p.project(vec3(1.0, 0.0, -5.0)).unwrap().x
            - p.project(vec3(-1.0, 0.0, -5.0)).unwrap().x;
        assert!(near_span > far_span);
    }
}
