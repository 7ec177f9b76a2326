// The Substrate concept: the execution-environment interface that every
// protocol core in src/protocol/ is written against.
//
// Each concurrency-control algorithm the paper evaluates (SI-HTM
// Algorithms 1-2, HTM+SGL, P8TM, Silo, and the unsafe raw-ROT ablation) is
// transcribed exactly once, as a class template over a Substrate. The two
// substrate implementations embody that single transcription twice:
//
//  * RealSubstrate (real_substrate.hpp) — real threads on the P8-HTM
//    emulation (src/p8htm/): hardware-transaction calls map to HtmRuntime,
//    waits map to std::atomic spinning with util::Backoff, fences are real
//    std::atomic_thread_fence instructions, and latency hooks are no-ops.
//  * SimSubstrate (sim_substrate.hpp) — fibers on the discrete-event
//    simulator (src/sim/): every primitive charges its modelled latency as a
//    virtual-time wait, spin loops become wait(quiesce_poll) polls, and the
//    abort backoff injects seeded jitter (DESIGN.md section 5b) so lockstep
//    fibers cannot kill each other forever.
//
// The protocol cores contain ALL protocol decisions — retry budgets, the
// safety wait, quiescent SGL drains, OCC validation, publish-then-validate
// ordering — while the substrate contains NONE: it only answers "how does
// this environment begin/commit a hardware transaction, read/write memory,
// publish a state-array slot, wait, and record history". Keeping that line
// sharp is what lets one transcription serve both embodiments (the
// single-transcription invariant, DESIGN.md section 5).
//
// Substrate interface (see the `Substrate` concept below for the checkable
// form; S denotes the substrate, t a thread id):
//
//  identity / bookkeeping
//    S::Config                    the substrate's own config struct
//    S::kMaxReadSpins             spins on a locked line before a Silo
//                                 optimistic read aborts
//    s.tid()                      thread id of the calling thread/fiber
//    s.n_threads()                size of the state array (N in Algorithm 1)
//    s.stats(t)                   mutable per-thread counters
//    s.recorder()                 HistoryRecorder* or nullptr
//    s.rec_now()                  event timestamp (0.0 real, virtual ns sim)
//    s.obs()                      observability sinks (obs/obs.hpp) or null
//    s.obs_now()                  trace timestamp in ns (monotonic wall clock
//                                 real, virtual time sim); cores only call it
//                                 when s.obs() is non-null
//
//  hardware transactions (tbegin./tbegin.ROT/tend. of the paper)
//    s.pre_begin(mode)            begin-latency charge, before the recorder
//                                 stamps the begin event (no-op real)
//    s.hw_begin(mode)             enter a transaction of HwMode kHtm/kRot
//    s.hw_commit()                HTMEnd; throws TxAbort if killed earlier
//    s.check_killed()             poll point inside wait loops
//    s.self_abort(cause)          rollback + throw TxAbort  [noreturn]
//    s.kill_tx_of(t, cause)       asynchronously kill t's transaction
//
//  memory (the weak-atomicity model of paper section 3.4)
//    s.tx_read/tx_write           transactional access (mode-appropriate
//                                 tracking: ROT reads untracked)
//    s.plain_read/plain_write     non-transactional coherence access; still
//                                 kills conflicting transactions
//
//  state array + logical time (Algorithm 1 line 1; 0 inactive, 1 completed,
//  >1 active since that timestamp)
//    s.state(t)                   read slot t
//    s.timestamp()                currentTime(): monotonic, always > 1
//    s.announce(ts)               slot := ts, then sync()
//    s.set_inactive()             slot := inactive (plain store)
//    s.release_inactive()         lwsync, then slot := inactive (RO retire)
//    s.release_fence()            lwsync only (ablated raw-ROT RO retire)
//    s.publish_completed()        suspend; slot := completed; sync(); resume
//                                 (throws TxAbort if killed while suspended)
//    s.snapshot_states(out)       copy all N slots (Algorithm 1 line 16)
//
//  waiting (each returns a small accounting object)
//    s.poller()                   .poll(): uncounted relax/poll step
//    s.wait_scope(st)             safety wait: .reset() per straggler,
//                                 .tick() counts one wait cycle, .poll()
//                                 relaxes; destructor settles st.wait_cycles
//    s.drain_scope(st)            SGL drain: .reset()/.poll(), counts
//                                 st.sgl_wait_cycles
//    s.straggler_guard()          killing policy: .armed(), .should_kill(),
//                                 .rearm() (paper section 6 future work)
//    s.abort_backoff(attempt)     inter-retry backoff (no-op real; seeded
//                                 virtual-time jitter sim)
//
//  single global lock (Algorithm 2's fall-back; slim-lock modes in
//  util/slim_lock.hpp and DESIGN.md section 11)
//    s.gl_locked() / s.gl_lock() / s.gl_unlock()
//                                 gl_lock acquires UPDATE mode: other
//                                 update/exclusive acquirers are excluded,
//                                 shared holders may still join. Contended
//                                 acquisition sleeps (futex real, modelled
//                                 wait sim), counting st.sgl_sleep_wakeups
//    s.gl_upgrade()               update -> exclusive before the SGL body's
//                                 plain writes: drains shared holders and
//                                 closes the door to new ones
//    s.gl_try_shared()            read-only overlap door: join in shared
//                                 mode during a holder's drain phase; fails
//                                 under an exclusive holder, when shared
//                                 admission is disabled, or in TTAS mode
//    s.gl_unlock_shared()         drop a shared join
//    s.gl_in_shared(t)            is thread t inside a shared join? The
//                                 holder's drain skips such threads: their
//                                 state slots stay active for the whole RO
//                                 run, and gl_upgrade()'s shared-count wait
//                                 is what bounds them. Read state(t) first,
//                                 then this (both seq_cst on real threads)
//    s.gl_wait_unlocked(st)       sleep until no update/exclusive holder
//                                 (the slim replacement for "spin while
//                                 gl_locked()"); counts st.sgl_sleep_wakeups
//    s.gl_subscribe()             put the lock word in the read set (HTM+SGL
//                                 early subscription)
//    s.gl_unsubscribe()           drop the subscription bookkeeping
//    s.gl_kill_subscribers(cause) what the acquiring store does on hardware
//
//  latency hooks (no-ops real; virtual-time charges sim)
//    s.charge_instr_read(lines)   P8TM per-read software instrumentation
//    s.charge_occ(entries)        Silo/P8TM per-entry lock/validate step
//    s.charge_read(lines)         Silo optimistic read (version check + log)
//    s.charge_write_buffer()      Silo local write buffering
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "check/history.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace si::protocol {

/// Kind of hardware transaction a core asks the substrate to run
/// (mirrors si::p8::TxMode / si::sim::SimTxMode, minus the kNone state the
/// cores never request).
enum class HwMode : unsigned char { kHtm, kRot };

/// Which path of a protocol an access handle is running on; exposed by the
/// transaction handles so workloads/tests can assert the taken path.
enum class TxPath : unsigned char { kRot, kReadOnly, kSgl };

/// State-array encoding shared by every core (Algorithm 1 of the paper).
inline constexpr std::uint64_t kStateInactive = 0;
inline constexpr std::uint64_t kStateCompleted = 1;

/// Checkable form of the interface documented above. Cores constrain their
/// substrate parameter with this, so wiring mistakes surface as concept
/// failures at the instantiation site instead of deep template errors.
template <typename S>
concept Substrate = requires(S s, int t, std::uint64_t ts, void* dst,
                             const void* src, std::size_t n,
                             si::util::AbortCause cause,
                             si::util::ThreadStats& st, std::uint64_t* out) {
  typename S::Config;
  { S::kMaxReadSpins } -> std::convertible_to<int>;
  { s.tid() } -> std::convertible_to<int>;
  { s.n_threads() } -> std::convertible_to<int>;
  { s.stats(t) } -> std::same_as<si::util::ThreadStats&>;
  { s.recorder() } -> std::same_as<si::check::HistoryRecorder*>;
  { s.rec_now() } -> std::convertible_to<double>;
  { s.obs() } -> std::same_as<const si::obs::ObsConfig*>;
  { s.obs_now() } -> std::convertible_to<double>;

  s.pre_begin(HwMode::kRot);
  s.hw_begin(HwMode::kRot);
  s.hw_commit();
  s.check_killed();
  s.self_abort(cause);
  s.kill_tx_of(t, cause);

  s.tx_read(dst, src, n);
  s.tx_write(dst, src, n);
  s.plain_read(dst, src, n);
  s.plain_write(dst, src, n);

  { s.state(t) } -> std::convertible_to<std::uint64_t>;
  { s.timestamp() } -> std::convertible_to<std::uint64_t>;
  s.announce(ts);
  s.set_inactive();
  s.release_inactive();
  s.release_fence();
  s.publish_completed();
  s.snapshot_states(out);

  s.poller().poll();
  s.wait_scope(st).poll();
  s.drain_scope(st).poll();
  { s.straggler_guard().armed() } -> std::convertible_to<bool>;
  s.abort_backoff(t);

  { s.gl_locked() } -> std::convertible_to<bool>;
  s.gl_lock();
  s.gl_unlock();
  s.gl_upgrade();
  { s.gl_try_shared() } -> std::convertible_to<bool>;
  s.gl_unlock_shared();
  { s.gl_in_shared(0) } -> std::convertible_to<bool>;
  s.gl_wait_unlocked(st);
  s.gl_subscribe();
  s.gl_unsubscribe();
  s.gl_kill_subscribers(cause);

  s.charge_instr_read(n);
  s.charge_occ(n);
  s.charge_read(n);
  s.charge_write_buffer();
};

}  // namespace si::protocol
