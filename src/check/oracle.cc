#include "check/oracle.h"

#include <optional>
#include <type_traits>

namespace asymnvm {

namespace {

constexpr uint64_t kHashBuckets = 64;

/** Call @p f with the handle of @p kind. */
template <typename F>
decltype(auto)
visit(Handles &h, WorkloadKind kind, F &&f)
{
    switch (kind) {
    case WorkloadKind::Stack:
        return f(h.stack);
    case WorkloadKind::Queue:
        return f(h.queue);
    case WorkloadKind::HashTable:
        return f(h.hash);
    case WorkloadKind::SkipList:
        break;
    }
    return f(h.skip);
}

} // namespace

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Stack:
        return "stack";
    case WorkloadKind::Queue:
        return "queue";
    case WorkloadKind::HashTable:
        return "hash";
    case WorkloadKind::SkipList:
        return "skiplist";
    }
    return "?";
}

void
applyToModel(WorkloadKind kind, Model *m, const Op &op)
{
    switch (kind) {
    case WorkloadKind::Stack:
        if (op.k == Op::K::Add)
            m->list.push_back(op.val);
        else if (op.k == Op::K::Remove && !m->list.empty())
            m->list.pop_back();
        break;
    case WorkloadKind::Queue:
        if (op.k == Op::K::Add)
            m->list.push_back(op.val);
        else if (op.k == Op::K::Remove && !m->list.empty())
            m->list.erase(m->list.begin());
        break;
    case WorkloadKind::HashTable:
    case WorkloadKind::SkipList:
        if (op.k == Op::K::Add)
            m->map[op.key] = op.val;
        else if (op.k == Op::K::Remove)
            m->map.erase(op.key);
        break;
    }
}

Status
Handles::create(FrontendSession &s, NodeId backend, WorkloadKind kind,
                const std::string &name)
{
    return visit(*this, kind, [&](auto &h) {
        using DS = std::remove_reference_t<decltype(h)>;
        if constexpr (std::is_same_v<DS, HashTable>)
            return DS::create(s, backend, name, kHashBuckets, &h);
        else
            return DS::create(s, backend, name, &h);
    });
}

Status
Handles::open(FrontendSession &s, NodeId backend, WorkloadKind kind,
              const std::string &name)
{
    return visit(*this, kind, [&](auto &h) {
        return std::remove_reference_t<decltype(h)>::open(s, backend, name,
                                                          &h);
    });
}

DsId
Handles::id(WorkloadKind kind)
{
    return visit(*this, kind, [](auto &h) { return h.id(); });
}

Status
Handles::apply(WorkloadKind kind, const Op &op, std::string *mismatch)
{
    using K = Op::K;
    Model &m = model(kind);
    const Value in = Value::ofU64(op.val);
    Value out;
    Status st = Status::Ok;
    std::optional<uint64_t> want; // what a Remove or Read must find
    switch (kind) {
    case WorkloadKind::Stack:
        st = op.k == K::Add      ? stack.push(in)
             : op.k == K::Remove ? stack.pop(&out)
                                 : stack.top(&out);
        if (!m.list.empty())
            want = m.list.back();
        break;
    case WorkloadKind::Queue:
        st = op.k == K::Add      ? queue.enqueue(in)
             : op.k == K::Remove ? queue.dequeue(&out)
                                 : queue.front(&out);
        if (!m.list.empty())
            want = m.list.front();
        break;
    case WorkloadKind::HashTable:
        st = op.k == K::Add      ? hash.put(op.key, in)
             : op.k == K::Remove ? hash.erase(op.key)
                                 : hash.get(op.key, &out);
        break;
    case WorkloadKind::SkipList:
        st = op.k == K::Add      ? skip.insert(op.key, in)
             : op.k == K::Remove ? skip.erase(op.key)
                                 : skip.find(op.key, &out);
        break;
    }
    const bool keyed = kind == WorkloadKind::HashTable ||
                       kind == WorkloadKind::SkipList;
    if (keyed) {
        const auto it = m.map.find(op.key);
        if (it != m.map.end())
            want = it->second;
    }
    if (st != Status::Ok && (st != Status::NotFound || op.k == K::Add))
        return st;
    const auto say = [&](const char *what) {
        static constexpr const char *kVerb[] = {"add", "remove", "read"};
        *mismatch = std::string(workloadName(kind)) + " " +
                    kVerb[static_cast<int>(op.k)] + " " + what;
    };
    // A remove or read must find what the model holds; an erase
    // returns no value to compare.
    if (op.k != K::Add) {
        if (!want) {
            if (st == Status::Ok)
                say("found an element the model lacks");
        } else if (st == Status::NotFound) {
            say("missed an element the model holds");
        } else if (!(keyed && op.k == K::Remove) && out.asU64() != *want) {
            say("returned a wrong value");
        }
    }
    applyToModel(kind, &m, op);
    return Status::Ok;
}

void
Handles::audit(InvariantChecker &chk, WorkloadKind kind, AuditReport *rep)
{
    const DsId ds = id(kind);
    chk.checkQuiescent(ds, rep);
    const auto got = chk.contents(ds, rep);
    const Model &m = model(kind);
    if (got && *got != m)
        rep->add(std::string(workloadName(kind)) + " (ds " +
                 std::to_string(ds) +
                 "): contents diverge from the model (image " +
                 std::to_string(got->list.size() + got->map.size()) +
                 " elements, model " +
                 std::to_string(m.list.size() + m.map.size()) + ")");
}

} // namespace asymnvm
