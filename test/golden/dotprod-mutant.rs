
#[lr::sig(fn(&RVec<f32, @n>, &RVec<f32, n>) -> f32)]
fn dotprod(x: &RVec<f32>, y: &RVec<f32>) -> f32 {
    let mut sum = 0.0;
    let mut i = 0;
    while i <= x.len() {
        sum = sum + *x.get(i) * *y.get(i);
        i += 1;
    }
    sum
}
