#include "backend/log_format.h"

#include <cassert>

namespace asymnvm {

namespace {

template <typename T>
void
appendPod(std::vector<uint8_t> &buf, const T &v)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
}

/**
 * Walk the entry stream of a transaction body. Bounds checks compare
 * against the remaining byte count, never `p + len` — a torn/corrupt
 * eh.len near UINT32_MAX would overflow the pointer arithmetic (UB) and
 * could wrap past `end`.
 * Unknown flag bytes are corruption, not implicit op-refs.
 */
bool
walkEntries(const uint8_t *p, const uint8_t *end, uint32_t num_entries,
            std::vector<ParsedMemLog> *out)
{
    for (uint32_t i = 0; i < num_entries; ++i) {
        if (static_cast<size_t>(end - p) < sizeof(MemLogEntryHeader))
            return false;
        MemLogEntryHeader eh;
        std::memcpy(&eh, p, sizeof(eh));
        p += sizeof(eh);
        if (eh.flag > static_cast<uint8_t>(MemLogFlag::kOpRef))
            return false;
        ParsedMemLog m{};
        m.flag = static_cast<MemLogFlag>(eh.flag);
        m.addr = RemotePtr::fromRaw(eh.addr_raw);
        m.len = eh.len;
        if (m.flag == MemLogFlag::kInline) {
            if (static_cast<size_t>(end - p) < eh.len)
                return false;
            m.inline_value = p;
            p += eh.len;
        } else {
            if (static_cast<size_t>(end - p) < 16)
                return false;
            std::memcpy(&m.oplog_off, p, 8);
            std::memcpy(&m.val_off, p + 8, 4);
            p += 16;
        }
        out->push_back(m);
    }
    return p == end;
}

} // namespace

void
TxBuilder::reset(uint64_t lpn, uint64_t ds_id, uint64_t covered_opn)
{
    buf_.clear();
    entries_ = 0;
    finished_ = false;
    TxHeader hdr{};
    hdr.magic = kTxMagic;
    hdr.lpn = lpn;
    hdr.ds_id = ds_id;
    hdr.covered_opn = covered_opn;
    appendPod(buf_, hdr);
}

void
TxBuilder::addInline(RemotePtr addr, const void *value, uint32_t len)
{
    assert(!finished_);
    MemLogEntryHeader eh{};
    eh.flag = static_cast<uint8_t>(MemLogFlag::kInline);
    eh.len = len;
    eh.addr_raw = addr.raw();
    appendPod(buf_, eh);
    const auto *p = static_cast<const uint8_t *>(value);
    buf_.insert(buf_.end(), p, p + len);
    ++entries_;
}

void
TxBuilder::addOpRef(RemotePtr addr, uint64_t oplog_off, uint32_t val_off,
                    uint32_t len)
{
    assert(!finished_);
    MemLogEntryHeader eh{};
    eh.flag = static_cast<uint8_t>(MemLogFlag::kOpRef);
    eh.len = len;
    eh.addr_raw = addr.raw();
    appendPod(buf_, eh);
    appendPod(buf_, oplog_off);
    appendPod(buf_, val_off);
    uint32_t pad = 0;
    appendPod(buf_, pad);
    ++entries_;
}

std::span<const uint8_t>
TxBuilder::finish()
{
    assert(!finished_);
    auto *hdr = reinterpret_cast<TxHeader *>(buf_.data());
    hdr->num_entries = entries_;
    hdr->payload_len = static_cast<uint32_t>(buf_.size() - sizeof(TxHeader));
    TxFooter foot{};
    foot.commit_flag = kTxCommit;
    foot.checksum = crc32c(buf_.data(), buf_.size());
    appendPod(buf_, foot);
    finished_ = true;
    return {buf_.data(), buf_.size()};
}

std::optional<TxParser>
TxParser::parse(std::span<const uint8_t> bytes)
{
    if (bytes.size() < sizeof(TxHeader))
        return std::nullopt;
    TxParser tp;
    std::memcpy(&tp.hdr_, bytes.data(), sizeof(TxHeader));
    if (tp.hdr_.magic != kTxMagic)
        return std::nullopt;
    // 64-bit arithmetic: payload_len may be torn garbage near UINT32_MAX.
    const uint64_t body =
        sizeof(TxHeader) + static_cast<uint64_t>(tp.hdr_.payload_len);
    if (bytes.size() < body + sizeof(TxFooter))
        return std::nullopt;
    TxFooter foot;
    std::memcpy(&foot, bytes.data() + body, sizeof(TxFooter));
    if (foot.commit_flag != kTxCommit)
        return std::nullopt;
    if (foot.checksum != crc32c(bytes.data(), body))
        return std::nullopt;
    if (!walkEntries(bytes.data() + sizeof(TxHeader), bytes.data() + body,
                     tp.hdr_.num_entries, &tp.entries_))
        return std::nullopt;
    return tp;
}

std::vector<uint8_t>
encodeOpLog(OpType op, uint64_t ds_id, uint64_t opn, Key key,
            const void *value, uint32_t val_len)
{
    std::vector<uint8_t> buf;
    OpLogHeader hdr{};
    hdr.magic = kOpMagic;
    hdr.op = static_cast<uint8_t>(op);
    hdr.ds_id = ds_id;
    hdr.opn = opn;
    hdr.key = key;
    hdr.val_len = val_len;
    appendPod(buf, hdr);
    if (val_len > 0) {
        const auto *p = static_cast<const uint8_t *>(value);
        buf.insert(buf.end(), p, p + val_len);
    }
    const uint32_t crc = crc32c(buf.data(), buf.size());
    appendPod(buf, crc);
    return buf;
}

std::optional<ParsedOpLog>
decodeOpLog(std::span<const uint8_t> bytes)
{
    if (bytes.size() < kMinOpLogWire)
        return std::nullopt;
    OpLogHeader hdr;
    std::memcpy(&hdr, bytes.data(), sizeof(hdr));
    if (hdr.magic != kOpMagic || hdr.op > kMaxOpTypeByte)
        return std::nullopt;
    // 64-bit arithmetic: val_len may be torn garbage near UINT32_MAX.
    const uint64_t body =
        sizeof(OpLogHeader) + static_cast<uint64_t>(hdr.val_len);
    if (bytes.size() < body + sizeof(uint32_t))
        return std::nullopt;
    uint32_t crc;
    std::memcpy(&crc, bytes.data() + body, sizeof(crc));
    if (crc != crc32c(bytes.data(), body))
        return std::nullopt;
    ParsedOpLog out;
    out.op = static_cast<OpType>(hdr.op);
    out.ds_id = hdr.ds_id;
    out.opn = hdr.opn;
    out.key = hdr.key;
    out.value.assign(bytes.begin() + sizeof(OpLogHeader),
                     bytes.begin() + body);
    out.wire_len = body + sizeof(uint32_t);
    return out;
}

} // namespace asymnvm
