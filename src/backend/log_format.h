#ifndef ASYMNVM_BACKEND_LOG_FORMAT_H_
#define ASYMNVM_BACKEND_LOG_FORMAT_H_

/**
 * @file
 * Wire/NVM format of memory logs, transaction logs and operation logs
 * (Figure 3 of the paper), plus builder/parser helpers shared by the
 * front-end (which constructs logs) and the back-end (which validates,
 * replays, and recovers them).
 *
 * A transaction is
 *
 *     TxHeader | entry* | TxFooter
 *     entry  = MemLogEntryHeader | value bytes (when flag == kInline)
 *
 * The footer carries the commit flag and a CRC32-C checksum over the
 * header and entries — the "end mark" used after a crash to decide
 * whether the latest transaction tore (Section 4.2). An operation-log
 * record is a 40 B OpLogHeader, its value bytes and a trailing u32
 * CRC32-C over both, so it is self-delimiting and validated: the
 * recovery scan (Case 2/3, Section 7.2) can walk the ring from the last
 * covered OPN and re-execute operations whose memory logs never flushed.
 */

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/checksum.h"
#include "common/types.h"

namespace asymnvm {

/** Operation types recorded in operation logs. */
enum class OpType : uint8_t
{
    None = 0,
    Insert,
    Update,
    Erase,
    Push,
    Pop,
    Enqueue,
    Dequeue,
};

/** Highest OpType byte a decoder accepts; larger values are corrupt. */
constexpr uint8_t kMaxOpTypeByte = static_cast<uint8_t>(OpType::Dequeue);

/** Memory-log entry flags (the one-byte "Flag" of Figure 3). */
enum class MemLogFlag : uint8_t
{
    kInline = 0, //!< value bytes follow the header
    kOpRef = 1,  //!< value lives in a previously flushed operation log
};

/** Header preceding each memory-log entry inside a transaction. */
struct MemLogEntryHeader
{
    uint8_t flag;      //!< MemLogFlag
    uint8_t pad[3];
    uint32_t len;      //!< value length in bytes
    uint64_t addr_raw; //!< RemotePtr::raw() destination address
};
static_assert(sizeof(MemLogEntryHeader) == 16);

/** Transaction header. */
struct TxHeader
{
    uint32_t magic;       //!< kTxMagic
    uint32_t num_entries;
    uint32_t payload_len; //!< bytes of entries following the header
    uint32_t pad;
    uint64_t lpn;         //!< this transaction's Log Processing Number
    uint64_t ds_id;       //!< structure whose SN brackets the replay
    uint64_t covered_opn; //!< operation logs up to this OPN are covered
};
static_assert(sizeof(TxHeader) == 40);

/** Transaction footer: commit flag + checksum end mark. */
struct TxFooter
{
    uint32_t commit_flag; //!< kTxCommit
    uint32_t checksum;    //!< CRC32-C over header + entries
};
static_assert(sizeof(TxFooter) == 8);

constexpr uint32_t kTxMagic = 0x54584c47;   // "TXLG"
constexpr uint32_t kTxCommit = 0xc0331717;  // commit mark
constexpr uint32_t kOpMagic = 0x4f504c47;   // "OPLG"
constexpr uint32_t kSkipMagic = 0x534b4950; // ring wrap padding marker

/** Operation-log record header; val_len bytes + u32 CRC follow. */
struct OpLogHeader
{
    uint32_t magic; //!< kOpMagic
    uint8_t op;     //!< OpType
    uint8_t pad[3];
    uint64_t ds_id;
    uint64_t opn;
    uint64_t key;
    uint32_t val_len;
    uint32_t pad2;
};
static_assert(sizeof(OpLogHeader) == 40);

/** Smallest op-log record: an empty value plus the CRC word. */
constexpr size_t kMinOpLogWire = sizeof(OpLogHeader) + sizeof(uint32_t);

/** Smallest transaction: a header with no entries plus the footer. */
constexpr size_t kMinTxWire = sizeof(TxHeader) + sizeof(TxFooter);

/**
 * Full wire length implied by a transaction header. The header may be
 * torn, so callers must check the magic, bounds-check and still parse.
 */
constexpr uint64_t txWireLen(const TxHeader &hdr)
{
    return sizeof(TxHeader) + static_cast<uint64_t>(hdr.payload_len) +
           sizeof(TxFooter);
}

/** Serializes one transaction's memory logs into its NVM byte format. */
class TxBuilder
{
  public:
    TxBuilder() { reset(0, 0, 0); }

    /** Start a fresh transaction. */
    void reset(uint64_t lpn, uint64_t ds_id, uint64_t covered_opn);

    /** Append one inline memory log ({address, value} pair). */
    void addInline(RemotePtr addr, const void *value, uint32_t len);

    /**
     * Append an op-ref memory log whose value bytes live in the already
     * persisted operation log at ring offset @p oplog_off (+ byte offset
     * @p val_off inside that record's value). Shrinks the transaction by
     * not duplicating data the op log already persisted (Section 4.3).
     */
    void addOpRef(RemotePtr addr, uint64_t oplog_off, uint32_t val_off,
                  uint32_t len);

    uint32_t numEntries() const { return entries_; }

    /** Finish: append the footer; returns the byte string. */
    std::span<const uint8_t> finish();

    /**
     * Size the finished transaction will occupy (exact in both states:
     * the predicted wire size before finish(), the actual one after).
     */
    size_t finishedSize() const
    {
        return finished_ ? buf_.size() : buf_.size() + sizeof(TxFooter);
    }

  private:
    std::vector<uint8_t> buf_;
    uint32_t entries_ = 0;
    bool finished_ = false;
};

/** Parsed view of one memory-log entry. */
struct ParsedMemLog
{
    MemLogFlag flag;
    RemotePtr addr;
    uint32_t len;
    const uint8_t *inline_value; //!< valid when flag == kInline
    uint64_t oplog_off;          //!< valid when flag == kOpRef
    uint32_t val_off;            //!< valid when flag == kOpRef
};

/** Validates and iterates a serialized transaction. */
class TxParser
{
  public:
    /**
     * Parse @p bytes. Returns std::nullopt if the buffer is torn
     * (bad magic, truncated, missing commit mark, checksum mismatch, or
     * a malformed entry stream).
     */
    static std::optional<TxParser> parse(std::span<const uint8_t> bytes);

    const TxHeader &header() const { return hdr_; }
    const std::vector<ParsedMemLog> &entries() const { return entries_; }

  private:
    TxHeader hdr_{};
    std::vector<ParsedMemLog> entries_;
};

/** Serialize one operation-log record. */
std::vector<uint8_t> encodeOpLog(OpType op, uint64_t ds_id, uint64_t opn,
                                 Key key, const void *value,
                                 uint32_t val_len);

/** Parsed operation-log record. */
struct ParsedOpLog
{
    OpType op;
    uint64_t ds_id;
    uint64_t opn;
    Key key;
    std::vector<uint8_t> value;
    size_t wire_len; //!< bytes the record occupies in the ring
};

/**
 * Decode an op-log record at the start of @p bytes. Returns
 * std::nullopt on bad magic / truncation / CRC mismatch / out-of-range
 * OpType.
 */
std::optional<ParsedOpLog> decodeOpLog(std::span<const uint8_t> bytes);

} // namespace asymnvm

#endif // ASYMNVM_BACKEND_LOG_FORMAT_H_
