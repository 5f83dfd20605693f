#ifndef ASYMNVM_DS_STACK_H_
#define ASYMNVM_DS_STACK_H_

/**
 * @file
 * Persistent stack (Section 8.1).
 *
 * A singly linked list whose head lives in the structure's naming entry.
 * The front-end caches the node pointed to by the head and, crucially,
 * exploits the operation log for *annulment*: pushes that have not yet
 * been materialized into memory logs can be served directly to later
 * pops, so a push/pop pair inside one batch touches the data area not at
 * all — "the effective pushes will be annulled by pops". Surviving
 * pending pushes materialize at the group commit (session flush hook).
 *
 * Stacks are not shared between front-ends (Section 9.5): the writer owns
 * head/count shadows locally under SWMR.
 */

#include <deque>

#include "ds/ds_common.h"

namespace asymnvm {

/** A persistent LIFO stack of 64-byte values. */
class Stack : public DsBase
{
  public:
    Stack() = default; //!< unbound; use create()/open()

    /** Create a new named stack on @p backend. */
    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, Stack *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }

    /** Open an existing stack (also the recovery path). */
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, Stack *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /**
     * Push one value. Durable per the session's persistence mode.
     * pushAsync run inline.
     */
    Status push(const Value &v);

    /** Pop the newest value; NotFound when empty. popAsync run inline. */
    Status pop(Value *out);

    /**
     * Push as a resumable op — the one implementation behind push(). The
     * body has no suspendable remote reads (deferred pushes stay local;
     * materialization writes through the overlay), so the pipeline win
     * is purely log-side: the op-log append rides the window's
     * doorbell-batched WQE chain and the commit fence coalesces into the
     * window drain. Ops on one stack are ordered by a per-structure
     * WindowGate (head/count shadows are member state); ops on other
     * structures overlap freely.
     */
    OpTask pushAsync(Value v);

    /**
     * Pop as a resumable op. Annulment and the empty case resolve
     * locally; the materialized path co_awaits the head-node read
     * (phase A) and runs the shadow-update/free tail inline after
     * read-set validation (phase B). Same per-structure WindowGate
     * ordering as pushAsync.
     */
    OpTask popAsync(Value *out);

    /** Read the newest value without removing it. */
    Status top(Value *out);

    /** Total elements (materialized + pending). */
    uint64_t size() const;

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::Stack;

    Stack(FrontendSession &s, NodeId backend, std::string name, DsId id,
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
    bool deferWrites() const
    {
        return !s_->config().symmetric && s_->config().use_txlog;
    }

    uint64_t head_raw_ = 0;  //!< shadow of aux0
    uint64_t count_ = 0;     //!< shadow of aux1 (materialized elements)
    std::deque<Value> pending_; //!< pushes awaiting materialization
};

} // namespace asymnvm

#endif // ASYMNVM_DS_STACK_H_
