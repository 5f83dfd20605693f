#ifndef ASYMNVM_CHECK_ORACLE_H_
#define ASYMNVM_CHECK_ORACLE_H_

/**
 * @file
 * The one oracle behind the crash explorer and the chaos soak.
 *
 * Both harnesses drive live structures with ops of one shape, check each
 * result against a shadow Model of the acknowledged ops, and audit the
 * raw image by InvariantChecker::contents(), which returns a Model too,
 * so the audit is a plain `==`. Each harness keeps its own op source: the
 * explorer's seeded script, the chaos soak's per-op RNG draws.
 */

#include <array>
#include <string>

#include "check/invariant_checker.h"
#include "ds/hash_table.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"

namespace asymnvm {

enum class WorkloadKind
{
    Stack,
    Queue,
    HashTable,
    SkipList,
};

const char *workloadName(WorkloadKind kind);

/** One op: Add pushes/enqueues/inserts, Remove pops/dequeues/erases,
 *  Read peeks or looks up. `key` is ignored by stacks and queues. */
struct Op
{
    enum class K
    {
        Add,
        Remove,
        Read,
    };
    K k;
    Key key;
    uint64_t val;
};

/** Advance @p m by @p op, as a structure of @p kind would. */
void applyToModel(WorkloadKind kind, Model *m, const Op &op);

/**
 * One live handle per kind, each with the shadow model of the ops
 * acknowledged on it. A harness creates the kinds it drives.
 */
struct Handles
{
    Stack stack;
    Queue queue;
    HashTable hash;
    SkipList skip;
    std::array<Model, 4> models;

    Model &model(WorkloadKind kind)
    {
        return models[static_cast<size_t>(kind)];
    }

    Status create(FrontendSession &s, NodeId backend, WorkloadKind kind,
                  const std::string &name);
    /** Reopen after a crash (the recovery path); the model is kept. */
    Status open(FrontendSession &s, NodeId backend, WorkloadKind kind,
                const std::string &name);
    DsId id(WorkloadKind kind);

    /**
     * Run @p op on the @p kind structure and check its result against
     * the model. Ok, or a remove's or read's NotFound, advances the
     * model and returns Ok; a wrong value, or a found or missed element
     * the model disagrees with, also lands in @p mismatch. Any other
     * status (a crash, Unavailable) comes back as is, the model
     * untouched.
     */
    Status apply(WorkloadKind kind, const Op &op, std::string *mismatch);

    /**
     * The audit both harnesses run on a quiesced image: the @p kind
     * structure's locks, then its contents, which must equal the model.
     */
    void audit(InvariantChecker &chk, WorkloadKind kind, AuditReport *rep);
};

} // namespace asymnvm

#endif // ASYMNVM_CHECK_ORACLE_H_
