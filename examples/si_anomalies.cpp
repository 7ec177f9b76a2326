// Interactive tour of the isolation phenomena the paper is built around:
//
//   1. the snapshot anomaly of raw ROTs (Fig. 3) — happens on the bare
//      emulated hardware, is prevented by SI-HTM's safety wait;
//   2. write skew — permitted by SI-HTM (it implements SI, not
//      serializability), forbidden by the serializable baselines;
//   3. read promotion (section 2.1) — the paper's recipe for making a
//      write-skew-prone program serializable under SI, demonstrated on the
//      two-doctors-on-call example.
//
// Run: ./examples/si_anomalies
#include <atomic>
#include <cstdio>
#include <thread>

#include "p8htm/htm.hpp"
#include "protocol/state_table.hpp"
#include "protocol/tm.hpp"
#include "util/backoff.hpp"

namespace {

struct alignas(si::util::kLineSize) Cell {
  std::uint64_t v = 0;
};

void await(const std::atomic<bool>& flag) {
  si::util::Backoff b;
  while (!flag.load(std::memory_order_acquire)) b.pause();
}

/// Fig. 3 on the raw hardware: a ROT reader sees X change under its feet
/// because the writer ROT commits mid-flight.
void demo_raw_rot_anomaly() {
  si::p8::HtmRuntime rt{si::p8::HtmConfig{}};
  Cell x;
  std::atomic<bool> first_done{false}, committed{false};
  std::uint64_t first = 0, second = 0;

  std::thread reader([&] {
    rt.register_thread(0);
    rt.begin(si::p8::TxMode::kRot);
    first = rt.load(&x.v);
    first_done.store(true, std::memory_order_release);
    await(committed);
    second = rt.load(&x.v);
    rt.commit();
  });
  std::thread writer([&] {
    rt.register_thread(1);
    await(first_done);
    rt.begin(si::p8::TxMode::kRot);
    rt.store(&x.v, std::uint64_t{1});
    rt.commit();  // raw ROT: no safety wait
    committed.store(true, std::memory_order_release);
  });
  reader.join();
  writer.join();
  std::printf("1. raw ROTs (no safety wait):   r(X)=%llu ... r(X)=%llu"
              "   <- snapshot broken (Fig. 3)\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(second));
}

/// The same interleaving under SI-HTM: the writer's safety wait holds its
/// commit until the reader finishes (or dies trying).
void demo_sihtm_prevents_it() {
  si::protocol::SiHtm cc({.max_threads = 4});
  Cell x;
  std::uint64_t first = 0, second = 0;
  std::atomic<bool> reader_in{false};

  std::thread reader([&] {
    cc.register_thread(0);
    cc.execute(false, [&](auto& tx) {
      first = tx.read(&x.v);
      reader_in.store(true, std::memory_order_release);
      si::util::Backoff b;
      while (cc.substrate().state(1) != si::protocol::kCompleted) b.pause();
      second = tx.read(&x.v);
    });
  });
  std::thread writer([&] {
    cc.register_thread(1);
    await(reader_in);
    cc.execute(false, [&](auto& tx) { tx.write(&x.v, std::uint64_t{1}); });
  });
  reader.join();
  writer.join();
  std::printf("2. SI-HTM (safety wait):        r(X)=%llu ... r(X)=%llu"
              "   <- snapshot held (Fig. 4A)\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(second));
}

/// Two doctors on call; each checks that the other is still on call before
/// going off duty. Under SI both may leave (write skew); with the paper's
/// read promotion the constraint holds.
template <typename CC>
int doctors_on_call(CC& cc, bool promote_reads) {
  Cell alice, bob;
  alice.v = 1;  // 1 = on call
  bob.v = 1;
  std::atomic<int> arrived{0};
  bool first_attempt[2] = {true, true};

  auto leave = [&](int tid, Cell* me, Cell* other) {
    cc.register_thread(tid);
    cc.execute(false, [&, me, other](auto& tx) {
      const auto others = tx.read(&other->v);
      if (first_attempt[tid]) {
        first_attempt[tid] = false;
        arrived.fetch_add(1, std::memory_order_acq_rel);
        si::util::Backoff b;
        while (arrived.load(std::memory_order_acquire) < 2) b.pause();
      }
      if (others == 1) {  // somebody else still on call: safe to leave
        if (promote_reads) {
          tx.write(&other->v, others);  // read promotion (paper sec. 2.1)
        }
        tx.write(&me->v, std::uint64_t{0});
      }
    });
  };
  std::thread t1([&] { leave(0, &alice, &bob); });
  std::thread t2([&] { leave(1, &bob, &alice); });
  t1.join();
  t2.join();
  return static_cast<int>(alice.v + bob.v);
}

}  // namespace

int main() {
  std::printf("SI anomalies on the emulated P8-HTM\n");
  std::printf("-----------------------------------\n");
  demo_raw_rot_anomaly();
  demo_sihtm_prevents_it();

  {
    si::protocol::SiHtm cc({.max_threads = 4});
    const int on_call = doctors_on_call(cc, /*promote_reads=*/false);
    std::printf("3. SI-HTM write skew:           %d doctor(s) left on call"
                "   <- SI allows the skew\n", on_call);
  }
  {
    si::protocol::SiHtm cc({.max_threads = 4});
    const int on_call = doctors_on_call(cc, /*promote_reads=*/true);
    std::printf("4. SI-HTM + read promotion:     %d doctor(s) left on call"
                "   <- promoted reads conflict\n", on_call);
  }
  {
    si::protocol::Silo cc;
    const int on_call = doctors_on_call(cc, /*promote_reads=*/false);
    std::printf("5. Silo (serializable):         %d doctor(s) left on call"
                "   <- validation catches it\n", on_call);
  }
  std::printf("\nexpected: line 1 shows 0 then 1; lines 2 holds 0/0;\n"
              "line 3 shows 0 doctors (the anomaly!), lines 4-5 show 1.\n");
  return 0;
}
