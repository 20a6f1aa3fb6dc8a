
#[lr::sig(fn(i32, &RVec<i32, @n>) -> usize{v: v <= n})]
fn bsearch(k: i32, items: &RVec<i32>) -> usize {
    let size = items.len();
    if size == 0 {
        return size;
    }
    let mut lo = 0;
    let mut hi = size;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let val = *items.get(mid);
        if val < k {
            lo = mid + 1;
        } else if k < val {
            hi = mid;
        } else {
            return mid;
        }
    }
    size
}

#[lr::sig(fn(&RVec<i32, @n>, i32) -> bool)]
fn contains(items: &RVec<i32>, k: i32) -> bool {
    let idx = bsearch(k, items);
    if idx < items.len() {
        *items.get(idx) == k
    } else {
        false
    }
}
