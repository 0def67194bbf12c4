//! Keep every core out of idle halt while a run measures.
//!
//! On a virtual machine, a core whose only runnable thread blocks (a
//! client waiting for a shard lock) halts, and the hypervisor may give
//! the physical core away; waking the blocked client then waits until
//! the hypervisor schedules the halted core again. On a shared host
//! that wake-up takes from microseconds to many milliseconds, depending
//! on what other tenants run, and it dominated the two-client
//! workloads' tail latency and throughput from run to run. One spinning
//! thread per core at the lowest scheduling class (`SCHED_IDLE`) keeps
//! the cores running: it is scheduled only when no client can run, so
//! it takes no time from the engine, and a woken client preempts it at
//! once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spinning `SCHED_IDLE` threads, stopped and joined on drop.
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleKeepers {
    /// One keeper per core. A keeper whose thread cannot be moved to
    /// `SCHED_IDLE` exits at once rather than spin at normal priority.
    pub fn start(cores: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !lower_to_idle_class() {
                        return;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for IdleKeepers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A keeper only spins and returns; nothing to report.
            let _ = t.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`; false when that fails.
#[cfg(target_os = "linux")]
fn lower_to_idle_class() -> bool {
    /// `struct sched_param` of Linux: one `int`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads the one `struct
    // sched_param` behind `param`, which is initialised and outlives the
    // call; pid 0 names the calling thread, and the call changes nothing
    // but that thread's scheduling class.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Elsewhere there is no idle class to move to: no keepers.
#[cfg(not(target_os = "linux"))]
fn lower_to_idle_class() -> bool {
    false
}
