#ifndef ASYMNVM_DS_HASH_TABLE_H_
#define ASYMNVM_DS_HASH_TABLE_H_

/**
 * @file
 * Persistent chained hash table (Section 8.2).
 *
 * A fixed bucket array in the back-end data area (its address and size in
 * the naming entry's auxiliary words) with per-bucket chains of key/value
 * nodes. Caching is item-granularity: bucket head words and chain nodes
 * are cached individually, favoring hot keys. Batching brings no benefit
 * to an O(1) structure (Table 3 leaves the RCB cell empty), but the hash
 * table still participates in the op-log/memory-log pipeline.
 */

#include "ds/ds_common.h"

namespace asymnvm {

/** A persistent hash map from 64-bit keys to 64-byte values. */
class HashTable : public DsBase
{
  public:
    HashTable() = default; //!< unbound; use create()/open()

    /**
     * Create a table with @p nbuckets chains (rounded up to a power of
     * two). The bucket array is allocated eagerly.
     */
    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, uint64_t nbuckets,
                         HashTable *out, const DsOptions &opt = {});

    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, HashTable *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update: putAsync run inline. */
    Status put(Key key, const Value &v);

    /**
     * Insert/update as a resumable op — the one implementation behind
     * put() and putMany(). The chain walk co_awaits every remote read
     * (phase A); after the read set validates against sibling window
     * writes, the tail (in-place rewrite, or fresh node + bucket-head
     * relink) runs inline and unsuspended (phase B). Same-key ops in one
     * window are WindowGate-ordered.
     */
    OpTask putAsync(Key key, Value v);

    /** Pipelined multi-put; results[i] receives kvs[i]'s status. */
    Status putMany(std::span<const std::pair<Key, Value>> kvs,
                   Status *results);

    /** Point lookup: getAsync run inline under the reader protocol. */
    Status get(Key key, Value *out);

    /**
     * Point lookup as a resumable op: the chain walk co_awaits every
     * remote read so executePipelined can overlap several lookups per
     * round trip. Pipelined only where pipelineEligible() holds.
     */
    OpTask getAsync(Key key, Value *out);

    /**
     * Pipelined multi-lookup; results[i] receives keys[i]'s status.
     * Shared handles without the writer lock fall back to serial get().
     */
    Status getMany(std::span<const Key> keys, Value *vals,
                   Status *results);

    /** Remove; NotFound when absent. eraseAsync run inline. */
    Status erase(Key key);

    /**
     * Remove as a resumable op: suspendable chain walk (phase A), then
     * the unlink/free tail inline after read-set validation (phase B).
     */
    OpTask eraseAsync(Key key);

    /** Pipelined multi-erase; results[i] receives keys[i]'s status. */
    Status eraseMany(std::span<const Key> keys, Status *results);

    /** True when the key is present. */
    bool contains(Key key);

    uint64_t size() const { return count_; }
    uint64_t buckets() const { return nbuckets_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::HashTable;

    HashTable(FrontendSession &s, NodeId backend, std::string name,
              DsId id, const DsOptions &opt)
        : DsBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        Key key;
        uint64_t next_raw;
        Value value;
    };
    static_assert(sizeof(Node) == 80);

    /** Allocate and zero the bucket array; record it in the aux words. */
    Status initBuckets(uint64_t nbuckets);
    Status reload();
    RemotePtr bucketPtr(Key key) const;

    uint64_t array_off_ = 0; //!< aux0: bucket array NVM offset
    uint64_t nbuckets_ = 0;  //!< aux1
    uint64_t count_ = 0;     //!< aux2 (maintained by the writer)
};

} // namespace asymnvm

#endif // ASYMNVM_DS_HASH_TABLE_H_
