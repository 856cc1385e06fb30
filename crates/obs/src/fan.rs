//! Spreading independent work over threads: [`fan_out`] is the one way
//! the workspace does it (DESIGN.md, *Fan-out*).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on the calling thread plus up to `threads - 1`
/// scoped helpers, and returns the results in item order whichever
/// thread produced them.
///
/// Each thread takes the next index from one shared counter, so a slow
/// item delays only the thread that holds it. `threads` of 0 or 1 runs
/// everything on the caller. A helper the OS will not start leaves its
/// share to the other threads. A panic in `f` is re-raised on the caller
/// with its own payload once every thread has stopped.
#[expect(
    clippy::disallowed_methods,
    reason = "the one scoped-thread fan-out every caller goes through"
)]
pub fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(items.len()))
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, run).ok())
            .collect();
        let mut done = run();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier, Mutex};

    #[test]
    fn results_come_back_in_item_order_when_items_finish_out_of_order() {
        // The helper's one item waits until the caller has mapped every
        // other item, and the caller waits on its first item until the
        // helper has taken one. So whichever index the helper holds, the
        // caller maps a higher one before it, and the helper's result
        // comes last.
        let n = 8;
        let items: Vec<usize> = (0..n).collect();
        let caller = std::thread::current().id();
        let helper_took_one = Barrier::new(2);
        let caller_waited = std::sync::Once::new();
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let finished = Mutex::new(Vec::new());
        let out = fan_out(&items, 2, |&i| {
            if std::thread::current().id() == caller {
                caller_waited.call_once(|| {
                    helper_took_one.wait();
                });
                tx.send(()).expect("the receiver outlives the fan-out");
            } else {
                helper_took_one.wait();
                let rx = rx.lock().expect("unpoisoned");
                for _ in 1..n {
                    rx.recv().expect("the caller maps every other item");
                }
            }
            finished.lock().expect("unpoisoned").push(i);
            i * 10
        });
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
        let finished = finished.into_inner().expect("unpoisoned");
        assert_ne!(finished, items, "the items finished out of order");
    }

    #[test]
    fn every_item_is_mapped_exactly_once_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        for threads in [0, 1, 2, 3, 8, 100] {
            let calls = AtomicU64::new(0);
            let out = fan_out(&items, threads, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * x
            });
            assert_eq!(calls.into_inner(), 37, "threads = {threads}");
            let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, squares, "threads = {threads}");
        }
    }

    #[test]
    fn an_empty_slice_maps_to_nothing() {
        for threads in [0, 1, 4] {
            let out: Vec<u8> = fan_out(&[] as &[u8], threads, |_| unreachable!());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_with_its_payload() {
        // The barrier holds each item until the other has started, so
        // the two run on different threads: one on the caller, one on
        // the helper, which panics.
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&[0_u8, 1], 2, |_| {
                barrier.wait();
                if std::thread::current().id() != caller {
                    std::panic::panic_any(String::from("the helper failed"));
                }
            })
        }));
        let payload = panicked.expect_err("the helper's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("the helper failed")
        );
    }
}
