// Transactional skiplist with deterministic towers, plus hand-over-hand and
// coarse-lock baselines over the same node layout.
//
// Layout: one 128-byte line per node (key, value, height, baseline lock,
// 12-level tower). A lookup touches O(log n) lines — the pointer-chasing
// pattern the paper's capacity argument is about: under HTM+SGL the whole
// search path is tracked and read capacity overflows; under SI-HTM only the
// write set is, and read-only lookups/ranges ride the non-transactional path.
//
// Tower heights are a pure function of the key (geometric p=1/2 via
// splitmix64), so retried transaction bodies and real-vs-sim replays link
// identical towers. Removes re-write the victim's own tower pointers ("read
// promotion", mirroring HashMap::remove): two SI transactions removing
// adjacent keys would otherwise have disjoint write sets and commit a
// write-skew that corrupts the list; promoting the victim's links makes them
// WW-conflict so first-committer-wins aborts one.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "maps/maps.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"

namespace si::maps {

class SkipList {
 public:
  static constexpr int kMaxLevel = 12;

  struct alignas(si::util::kLineSize) Node {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::int32_t height = 0;
    si::util::Spinlock lock;  // fine-grained baseline only; tx paths ignore it
    Node* next[kMaxLevel] = {};
  };
  static_assert(sizeof(Node) == si::util::kLineSize,
                "one skiplist node per cache line");

  using Pool = si::hashmap::NodePool<Node>;
  using ScratchT = Scratch<Node>;

  /// Deterministic tower height in [1, kMaxLevel], geometric p=1/2.
  static int height_of(std::uint64_t key) noexcept {
    std::uint64_t bits = mix64(key ^ 0x5ca1ab1eULL);
    bits &= ~(std::uint64_t{1} << (kMaxLevel - 1));  // cap at kMaxLevel
    return 1 + std::countr_one(bits);
  }

  // -- transactional operations (Tx concept) --------------------------------

  template <typename Tx>
  bool lookup(Tx& tx, std::uint64_t key, std::uint64_t* out) {
    Node* preds[kMaxLevel];
    find_preds(tx, key, preds);
    Node* cand = tx.read(&preds[0]->next[0]);
    if (cand == nullptr || tx.read(&cand->key) != key) return false;
    if (out != nullptr) *out = tx.read(&cand->value);
    return true;
  }

  /// Insert-or-update. Returns true iff a fresh node was linked.
  template <typename Tx>
  bool insert(Tx& tx, std::uint64_t key, std::uint64_t value, ScratchT& s) {
    Node* preds[kMaxLevel];
    find_preds(tx, key, preds);
    Node* cand = tx.read(&preds[0]->next[0]);
    if (cand != nullptr && tx.read(&cand->key) == key) {
      tx.write(&cand->value, value);
      return false;
    }
    const int h = height_of(key);
    Node* fresh = s.take();
    tx.write(&fresh->key, key);
    tx.write(&fresh->value, value);
    tx.write(&fresh->height, static_cast<std::int32_t>(h));
    // Initialise the whole tower (recycled nodes carry stale pointers above
    // their new height); the node is one line, so this is one line of writes.
    for (int l = 0; l < kMaxLevel; ++l) {
      Node* nxt = l < h ? tx.read(&preds[l]->next[l]) : nullptr;
      tx.write(&fresh->next[l], nxt);
    }
    for (int l = 0; l < h; ++l) tx.write(&preds[l]->next[l], fresh);
    return true;
  }

  /// Returns true iff the key was present; *unlinked receives the physically
  /// removed node (caller retires it — snapshot readers may still traverse).
  template <typename Tx>
  bool remove(Tx& tx, std::uint64_t key, Node** unlinked) {
    Node* preds[kMaxLevel];
    find_preds(tx, key, preds);
    Node* victim = tx.read(&preds[0]->next[0]);
    if (victim == nullptr || tx.read(&victim->key) != key) return false;
    const int h = static_cast<int>(tx.read(&victim->height));
    for (int l = 0; l < h && l < kMaxLevel; ++l) {
      if (tx.read(&preds[l]->next[l]) != victim) continue;  // torn-read guard
      Node* nxt = tx.read(&victim->next[l]);
      tx.write(&preds[l]->next[l], nxt);
      tx.write(&victim->next[l], nxt);  // read promotion (see header comment)
    }
    *unlinked = victim;
    return true;
  }

  /// In-order scan of [lo, hi]; emit(key, value) returns false to stop.
  template <typename Tx, typename Emit>
  void range(Tx& tx, std::uint64_t lo, std::uint64_t hi, Emit&& emit) {
    Node* preds[kMaxLevel];
    find_preds(tx, lo, preds);
    std::size_t budget = kTraversalBudget;
    Node* cur = tx.read(&preds[0]->next[0]);
    while (cur != nullptr && budget-- > 0) {
      const std::uint64_t k = tx.read(&cur->key);
      if (k > hi) break;
      if (k >= lo && !emit(k, tx.read(&cur->value))) break;
      cur = tx.read(&cur->next[0]);
    }
  }

  // -- bulk build (quiesced callers only) -----------------------------------

  /// Links `count` unpublished nodes, strictly ascending by key and with key
  /// and value set, into this empty list in one pass; sets each height and
  /// writes each tower slot once. The result equals inserting the nodes one
  /// by one in any order, because a tower's height is height_of(key).
  void link_sorted(Node* const* nodes, std::size_t count) {
    assert(head_.next[0] == nullptr && "link_sorted needs an empty list");
    Node* last[kMaxLevel];
    for (Node*& l : last) l = &head_;
    for (std::size_t i = 0; i < count; ++i) {
      Node* n = nodes[i];
      assert(i == 0 || nodes[i - 1]->key < n->key);
      const int h = height_of(n->key);
      n->height = static_cast<std::int32_t>(h);
      for (int l = 0; l < h; ++l) {
        last[l]->next[l] = n;
        last[l] = n;
      }
      for (int l = h; l < kMaxLevel; ++l) n->next[l] = nullptr;
    }
    for (int l = 0; l < kMaxLevel; ++l) last[l]->next[l] = nullptr;
  }

  // -- fine-grained baseline: Pugh-style hand-over-hand locking -------------
  //
  // Every acquisition within one operation targets a strictly larger key
  // than any lock already held (descents move right-then-down starting at
  // the head sentinel), so the lock order is a total order and descents
  // cannot deadlock. A node's forward pointers and value only change under
  // its level-0 predecessor's lock, which is exactly the lock a reader holds
  // when it reads them — plain loads/stores, no atomics needed.

  bool fine_lookup(std::uint64_t key, std::uint64_t* out) {
    Node* cur = descend_locked(key);
    Node* cand = cur->next[0];
    const bool found = cand != nullptr && cand->key == key;
    if (found && out != nullptr) *out = cand->value;
    cur->lock.unlock();
    return found;
  }

  bool fine_insert(std::uint64_t key, std::uint64_t value, Pool& pool) {
    Node* preds[kMaxLevel];
    fine_find(key, preds);
    Node* cand = preds[0]->next[0];
    bool linked = false;
    if (cand != nullptr && cand->key == key) {
      cand->value = value;  // guarded by preds[0]'s lock
    } else {
      Node* fresh = pool.allocate();
      const int h = height_of(key);
      fresh->key = key;
      fresh->value = value;
      fresh->height = static_cast<std::int32_t>(h);
      for (int l = 0; l < kMaxLevel; ++l)
        fresh->next[l] = l < h ? preds[l]->next[l] : nullptr;
      for (int l = 0; l < h; ++l) preds[l]->next[l] = fresh;
      linked = true;
    }
    unlock_preds(preds);
    return linked;
  }

  bool fine_remove(std::uint64_t key, Pool& pool) {
    Node* preds[kMaxLevel];
    fine_find(key, preds);
    Node* victim = preds[0]->next[0];
    if (victim == nullptr || victim->key != key) {
      unlock_preds(preds);
      return false;
    }
    victim->lock.lock();  // key > every held pred: order preserved
    const int h = static_cast<int>(victim->height);
    for (int l = 0; l < h; ++l)
      if (preds[l]->next[l] == victim) preds[l]->next[l] = victim->next[l];
    victim->lock.unlock();
    unlock_preds(preds);
    // While we held every predecessor plus the victim, no other thread could
    // hold or be acquiring a reference to it; once unlinked it is unreachable,
    // so immediate reuse is safe (no generation deferral needed here).
    pool.release(victim);
    return true;
  }

  template <typename Emit>
  void fine_range(std::uint64_t lo, std::uint64_t hi, Emit&& emit) {
    Node* cur = descend_locked(lo);
    for (;;) {
      Node* nxt = cur->next[0];
      if (nxt == nullptr || nxt->key > hi) break;
      const bool more = emit(nxt->key, nxt->value);
      nxt->lock.lock();
      cur->lock.unlock();
      cur = nxt;
      if (!more) break;
    }
    cur->lock.unlock();
  }

  // -- non-transactional integrity check (quiesced callers only) ------------

  /// Validates per-level sortedness and that each level is a sublist of
  /// level 0 with heights matching height_of(key).
  bool structure_ok() {
    DirectTx tx;
    std::uint64_t prev = 0;
    bool first = true;
    std::size_t budget = kTraversalBudget;
    for (Node* n = head_.next[0]; n != nullptr; n = n->next[0]) {
      if (budget-- == 0) return false;
      if (!first && n->key <= prev) return false;
      if (n->height != static_cast<std::int32_t>(height_of(n->key)))
        return false;
      prev = n->key;
      first = false;
    }
    for (int l = 1; l < kMaxLevel; ++l) {
      budget = kTraversalBudget;
      for (Node* n = head_.next[l]; n != nullptr; n = n->next[l]) {
        if (budget-- == 0) return false;
        if (n->height <= l) return false;  // must be linked at all its levels
        // Membership at level l implies membership at level 0.
        std::uint64_t v = 0;
        if (!lookup(tx, n->key, &v)) return false;
      }
    }
    return true;
  }

  Node* head() noexcept { return &head_; }

 private:
  template <typename Tx>
  void find_preds(Tx& tx, std::uint64_t key, Node** preds) {
    Node* cur = &head_;
    std::size_t budget = kTraversalBudget;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      for (;;) {
        Node* nxt = tx.read(&cur->next[l]);
        if (nxt == nullptr || budget == 0 || tx.read(&nxt->key) >= key) break;
        --budget;
        cur = nxt;
      }
      preds[l] = cur;
    }
  }

  /// Hand-over-hand descent holding a single lock; returns the level-0
  /// predecessor of `key`, locked.
  Node* descend_locked(std::uint64_t key) {
    head_.lock.lock();
    Node* cur = &head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      for (;;) {
        Node* nxt = cur->next[l];
        if (nxt == nullptr || nxt->key >= key) break;
        nxt->lock.lock();
        cur->lock.unlock();
        cur = nxt;
      }
    }
    return cur;
  }

  /// Descent that retains (locked) the predecessor at every level. preds[]
  /// entries repeat in consecutive runs when one node is the predecessor at
  /// several levels; unlock_preds() dedupes on that property.
  void fine_find(std::uint64_t key, Node** preds) {
    head_.lock.lock();
    Node* cur = &head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      bool cur_pinned = l != kMaxLevel - 1;  // cur == preds[l+1] at entry
      for (;;) {
        Node* nxt = cur->next[l];
        if (nxt == nullptr || nxt->key >= key) break;
        nxt->lock.lock();
        if (!cur_pinned) cur->lock.unlock();
        cur = nxt;
        cur_pinned = false;
      }
      preds[l] = cur;
    }
  }

  static void unlock_preds(Node** preds) {
    for (int l = 0; l < kMaxLevel; ++l)
      if (l == kMaxLevel - 1 || preds[l] != preds[l + 1]) preds[l]->lock.unlock();
  }

  Node head_;  // sentinel: key field never compared
};

}  // namespace si::maps
