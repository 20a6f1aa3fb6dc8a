
#[lr::sig(fn(&mut RVec<f32, @n>, usize{v: v < n}, usize{v: v < n}))]
fn sift_down(xs: &mut RVec<f32>, start: usize, end: usize) {
    let mut root = start;
    while root * 2 + 1 <= end {
        let child = root * 2 + 1;
        let mut sw = root;
        if *xs.get(sw) < *xs.get(child) {
            sw = child;
        }
        if child + 1 <= end {
            if *xs.get(sw) < *xs.get(child + 1) {
                sw = child + 1;
            }
        }
        if sw == root {
            return;
        }
        xs.swap(root, sw);
        root = sw;
    }
}

#[lr::sig(fn(&mut RVec<f32, @n>))]
fn heapsort(xs: &mut RVec<f32>) {
    let len = xs.len();
    if len <= 1 {
        return;
    }
    let mut start = len / 2;
    while 0 < start {
        start -= 1;
        sift_down(xs, start, len - 1);
    }
    let mut end = len;
    while 0 < end {
        xs.swap(0, end);
        end -= 1;
        sift_down(xs, 0, end);
    }
}
