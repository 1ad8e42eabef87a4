//! In-place three-way partition.

use core::cmp::Ordering;

/// Three-way (Dutch national flag) partition of `buf[lo..hi]` around the
/// pivot value `pivot`.
///
/// On return `(lt, gt)`:
/// * `buf[lo..lt]`  contains elements `< pivot`,
/// * `buf[lt..gt]`  contains elements `== pivot`,
/// * `buf[gt..hi]`  contains elements `> pivot`.
#[inline]
pub fn partition3<T: Ord>(buf: &mut [T], lo: usize, hi: usize, pivot: &T) -> (usize, usize) {
    debug_assert!(lo <= hi && hi <= buf.len());
    let mut lt = lo;
    let mut i = lo;
    let mut gt = hi;
    while i < gt {
        // Dutch-flag invariant: [lo..lt) < pivot, [lt..i) == pivot,
        // [i..gt) unclassified, [gt..hi) > pivot.
        debug_assert!(lt <= i && i <= gt && gt <= hi);
        match buf[i].cmp(pivot) {
            Ordering::Less => {
                buf.swap(lt, i);
                lt += 1;
                i += 1;
            }
            Ordering::Greater => {
                gt -= 1;
                buf.swap(i, gt);
            }
            Ordering::Equal => i += 1,
        }
    }
    debug_assert!(buf[lo..lt].iter().all(|x| x < pivot));
    debug_assert!(buf[lt..gt].iter().all(|x| x == pivot));
    debug_assert!(buf[gt..hi].iter().all(|x| x > pivot));
    (lt, gt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition3_partitions() {
        let mut v = vec![4, 1, 7, 4, 9, 0, 4, 3, 8];
        let (lt, gt) = partition3(&mut v, 0, 9, &4);
        assert!(v[..lt].iter().all(|&x| x < 4));
        assert!(v[lt..gt].iter().all(|&x| x == 4));
        assert!(v[gt..].iter().all(|&x| x > 4));
        assert_eq!(gt - lt, 3);
    }

    #[test]
    fn partition3_subrange_untouched_outside() {
        let mut v = vec![100, 4, 1, 7, 4, -1];
        let (lt, gt) = partition3(&mut v, 1, 5, &4);
        assert_eq!(v[0], 100);
        assert_eq!(v[5], -1);
        assert!(v[1..lt].iter().all(|&x| x < 4));
        assert!(v[lt..gt].iter().all(|&x| x == 4));
        assert!(v[gt..5].iter().all(|&x| x > 4));
    }

    #[test]
    fn partition3_all_equal() {
        let mut v = vec![5; 8];
        let (lt, gt) = partition3(&mut v, 0, 8, &5);
        assert_eq!((lt, gt), (0, 8));
    }

    #[test]
    fn partition3_pivot_absent() {
        let mut v = vec![1, 9, 3, 7];
        let (lt, gt) = partition3(&mut v, 0, 4, &5);
        assert_eq!(lt, gt);
        assert!(v[..lt].iter().all(|&x| x < 5));
        assert!(v[gt..].iter().all(|&x| x > 5));
    }
}
