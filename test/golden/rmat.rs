
#[lr::refined_by(m: int, n: int)]
#[lr::invariant(0 < m && 1 < n)]
pub struct RMat {
    #[lr::field(RVec<RVec<f32, n>, m>)]
    inner: RVec<RVec<f32>>
}

impl RMat {
    #[lr::sig(fn(&RMat<@m, @n>) -> usize<m>)]
    pub fn rows(&self) -> usize {
        self.inner.len()
    }

    #[lr::sig(fn(&RMat<@m, @n>) -> usize<n>)]
    pub fn cols(&self) -> usize {
        self.inner.get(0).len()
    }

    #[lr::sig(fn(&RMat<@m, @n>, usize{v: v < m}, usize{v: v < n}) -> f32)]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        *self.inner.get(i).get(j)
    }

    #[lr::sig(fn(&mut RMat<@m, @n>, usize{v: v < m}, usize{v: v < n}, f32))]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        *self.inner.get_mut(i).get_mut(j) = v;
    }
}

#[lr::sig(fn(usize<@m>, usize<@n>) -> RMat<m, n> requires 0 < m && 1 < n)]
fn mat_zeros(m: usize, n: usize) -> RMat {
    let mut inner = RVec::new();
    let mut i = 0;
    while i < m {
        let mut row = RVec::new();
        let mut j = 0;
        while j < n {
            row.push(0.0);
            j += 1;
        }
        inner.push(row);
        i += 1;
    }
    RMat { inner }
}
