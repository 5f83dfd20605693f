#ifndef ASYMNVM_DS_SKIPLIST_H_
#define ASYMNVM_DS_SKIPLIST_H_

/**
 * @file
 * Persistent skiplist (Section 8.4, and the paper's running example of
 * Figure 2).
 *
 * Towers up to 16 levels with p = 0.5 (Section 9.2). The writer first
 * creates the fully initialized new node (successor pointers set), then
 * links predecessors from the bottom level upward, the ordering that
 * keeps concurrent readers on a consistent view. High-level nodes are the
 * hot ones, so cache admission is keyed on tower height ("we cache the
 * nodes with higher degree").
 */

#include <span>
#include <vector>

#include "ds/ds_common.h"

namespace asymnvm {

/** A persistent ordered map implemented as a skiplist. */
class SkipList : public DsBase
{
  public:
    static constexpr uint32_t kMaxLevel = 16;

    SkipList() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, SkipList *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt,
                            [](SkipList &l) { return l.initSentinel(); });
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, SkipList *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update (Figure 2's workflow): insertAsync run inline. */
    Status insert(Key key, const Value &v);

    /**
     * Insert/update as a resumable op — the one implementation behind
     * insert(), insertMany() and insertBatch(). The predecessor walk
     * co_awaits every remote read (phase A); once the walk's read set
     * validates against sibling window writes, the tail — update in
     * place, or fresh tower + bottom-up predecessor linking — runs
     * inline and unsuspended (phase B), so it is atomic with respect to
     * sibling ops. @p pin keeps the walk's reads in the batch-local pin
     * set (vector insertion).
     */
    OpTask insertAsync(Key key, Value v, bool pin = false);

    /** Pipelined multi-insert; results[i] receives kvs[i]'s status. */
    Status insertMany(std::span<const std::pair<Key, Value>> kvs,
                      Status *results);

    /** Vector insertion (sorted batch with path pinning, Section 8.4). */
    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Point lookup: findAsync run inline under the reader protocol. */
    Status find(Key key, Value *out);

    /**
     * Point lookup as a resumable op: the tower walk co_awaits every
     * remote read so executePipelined can overlap several lookups per
     * round trip. Pipelined only where pipelineEligible() holds.
     */
    OpTask findAsync(Key key, Value *out);

    /**
     * Pipelined multi-lookup; results[i] receives keys[i]'s status.
     * Shared handles without the writer lock fall back to serial find().
     */
    Status findMany(std::span<const Key> keys, Value *vals,
                    Status *results);

    /** Remove; NotFound when absent. eraseAsync run inline. */
    Status erase(Key key);

    /**
     * Remove as a resumable op: suspendable predecessor walk (phase A),
     * then victim read, top-down unlink and free/retire inline after
     * read-set validation (phase B).
     */
    OpTask eraseAsync(Key key);

    /** Pipelined multi-erase; results[i] receives keys[i]'s status. */
    Status eraseMany(std::span<const Key> keys, Status *results);

    /** Range scan: up to @p limit pairs with key >= @p from. */
    Status scan(Key from, uint32_t limit,
                std::vector<std::pair<Key, Value>> *out);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::SkipList;

    SkipList(FrontendSession &s, NodeId backend, std::string name,
             DsId id, const DsOptions &opt)
        : DsBase(s, backend, std::move(name), id, opt),
          level_rng_(0x5eed + id)
    {}

    struct Node
    {
        Key key;
        uint32_t level;
        uint32_t pad;
        Value value;
        uint64_t next[kMaxLevel];
    };
    static_assert(sizeof(Node) == 208);

    Status reload();
    /** Allocate the all-levels head sentinel; zero the count. */
    Status initSentinel();
    uint32_t randomLevel();

    /**
     * scan()'s serial walk to the first bottom-level node with key >=
     * @p key (0 when none). Each horizontal step gathers the current
     * node's lower-level successors — the exact nodes the walk reads
     * next when the step overshoots and the search descends.
     */
    Status findFirst(Key key, uint64_t *first_raw);

    uint64_t head_raw_ = 0; //!< aux0: sentinel node
    uint64_t count_ = 0;    //!< aux1
    Rng level_rng_;
};

} // namespace asymnvm

#endif // ASYMNVM_DS_SKIPLIST_H_
