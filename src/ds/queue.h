#ifndef ASYMNVM_DS_QUEUE_H_
#define ASYMNVM_DS_QUEUE_H_

/**
 * @file
 * Persistent FIFO queue (Section 8.1).
 *
 * Linked list with head and tail references in the naming entry's
 * auxiliary words. Like Stack, the queue exploits operation-log
 * annulment: when no materialized element remains, dequeues are served
 * from the pending (un-materialized) enqueues of the current batch, and
 * the annulled pairs never produce memory logs. Queues are not shared
 * between front-ends (Section 9.5).
 */

#include <deque>

#include "ds/ds_common.h"

namespace asymnvm {

/** A persistent FIFO queue of 64-byte values. */
class Queue : public DsBase
{
  public:
    Queue() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, Queue *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, Queue *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Append one value at the tail: enqueueAsync run inline. */
    Status enqueue(const Value &v);

    /** Remove the oldest value; NotFound when empty. dequeueAsync run
     *  inline. */
    Status dequeue(Value *out);

    /**
     * Enqueue as a resumable op — the one implementation behind
     * enqueue() and enqueueMany(). The deferred path is fully local; the
     * materialized path (new node, old-tail link, shadows) runs inline
     * and never suspends, so the pipeline win is log-side. Ops on one
     * queue are ordered by a per-structure WindowGate (head/tail/count
     * shadows are member state); ops on other structures overlap freely.
     */
    OpTask enqueueAsync(Value v);

    /** Pipelined multi-enqueue; results[i] receives vals[i]'s status. */
    Status enqueueMany(std::span<const Value> vals, Status *results);

    /**
     * Dequeue as a resumable op. Annulment and the empty case resolve
     * locally; the materialized path co_awaits the head-node read
     * (phase A) and runs the shadow-update/free tail inline after
     * read-set validation (phase B). Same per-structure
     * WindowGate ordering as enqueueAsync.
     */
    OpTask dequeueAsync(Value *out);

    /** Pipelined multi-dequeue; results[i] receives outs[i]'s status. */
    Status dequeueMany(std::span<Value> outs, Status *results);

    /** Peek the oldest value. */
    Status front(Value *out);

    uint64_t size() const;

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::Queue;

    Queue(FrontendSession &s, NodeId backend, std::string name, DsId id,
          const DsOptions &opt)
        : DsBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        Value value;
        uint64_t next_raw;
        uint64_t pad;
    };
    static_assert(sizeof(Node) == 80);

    Status reload();
    void installHooks();
    Status replay(const ParsedOpLog &op);
    Status materializePending();
    Status materializeOne(const Value &v);
    Status writeShadows();
    bool deferWrites() const
    {
        return !s_->config().symmetric && s_->config().use_txlog;
    }

    uint64_t head_raw_ = 0; //!< aux0
    uint64_t tail_raw_ = 0; //!< aux1
    uint64_t count_ = 0;    //!< aux2 (materialized)
    std::deque<Value> pending_;
};

} // namespace asymnvm

#endif // ASYMNVM_DS_QUEUE_H_
