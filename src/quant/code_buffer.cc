#include "quant/code_buffer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace localut {

namespace {

constexpr std::uint64_t kContentSeed = 0xc0'de'b0'ff'e7'5e'ed'01ull;

/** One serial SplitMix64 chain over the codes, four per step. */
std::uint64_t
hashCodes(const std::uint16_t* codes, std::size_t count)
{
    std::uint64_t h = kContentSeed;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        std::uint64_t chunk;
        std::memcpy(&chunk, codes + i, sizeof chunk);
        h = splitmix64(h ^ chunk);
    }
    std::uint64_t tail = 0;
    for (; i < count; ++i) {
        tail = (tail << 16) | codes[i];
    }
    return splitmix64(h ^ tail ^ count);
}

} // namespace

CodeBuffer::CodeBuffer(std::vector<std::uint16_t> codes)
{
    if (!codes.empty()) {
        block_ = new Block;
        block_->codes = std::move(codes);
        sync();
    }
}

CodeBuffer::CodeBuffer(const CodeBuffer& other) noexcept
    : block_(other.block_), offset_(other.offset_), size_(other.size_),
      data_(other.data_)
{
    if (block_ != nullptr) {
        ++block_->refs;
    }
}

CodeBuffer::CodeBuffer(CodeBuffer&& other) noexcept
    : block_(std::exchange(other.block_, nullptr)),
      offset_(std::exchange(other.offset_, 0)),
      size_(std::exchange(other.size_, 0)),
      data_(std::exchange(other.data_, nullptr))
{}

CodeBuffer&
CodeBuffer::operator=(const CodeBuffer& other) noexcept
{
    if (this != &other) {
        CodeBuffer copy(other);
        *this = std::move(copy);
    }
    return *this;
}

CodeBuffer&
CodeBuffer::operator=(CodeBuffer&& other) noexcept
{
    if (this != &other) {
        release();
        block_ = std::exchange(other.block_, nullptr);
        offset_ = std::exchange(other.offset_, 0);
        size_ = std::exchange(other.size_, 0);
        data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
}

CodeBuffer&
CodeBuffer::operator=(std::initializer_list<std::uint16_t> codes)
{
    return *this = CodeBuffer(codes);
}

void
CodeBuffer::release() noexcept
{
    if (block_ != nullptr && --block_->refs == 0) {
        delete block_;
    }
    block_ = nullptr;
    offset_ = size_ = 0;
    data_ = nullptr;
}

std::vector<std::uint16_t>&
CodeBuffer::ownSlow()
{
    if (block_ != nullptr && offset_ == 0 && block_->refs.load() == 1 &&
        size_ == block_->codes.size()) {
        // Sole owner of the whole block: only the memos are stale.
        block_->memos.clear();
        return block_->codes;
    }
    // Shared, a view, or empty: detach into a private block.
    auto* fresh = new Block;
    fresh->codes.assign(data_, data_ + size_);
    release();
    block_ = fresh;
    sync();
    return fresh->codes;
}

void
CodeBuffer::resize(size_type count, std::uint16_t value)
{
    own().resize(count, value);
    sync();
}

void
CodeBuffer::assign(size_type count, std::uint16_t value)
{
    *this = CodeBuffer(std::vector<std::uint16_t>(count, value));
}

void
CodeBuffer::reserve(size_type capacity)
{
    own().reserve(capacity);
    sync();
}

CodeBuffer
CodeBuffer::slice(size_type offset, size_type count) const
{
    LOCALUT_REQUIRE(offset <= size_ && count <= size_ - offset,
                    "CodeBuffer::slice [", offset, ", +", count,
                    ") outside a buffer of ", size_);
    CodeBuffer view;
    if (count > 0) {
        view = *this;
        view.offset_ += offset;
        view.size_ = count;
        view.data_ += offset;
    }
    return view;
}

CodeBuffer::RangeMemo&
CodeBuffer::memo() const
{
    std::lock_guard<std::mutex> lock(block_->mutex);
    return block_->memos.try_emplace({offset_, size_}).first->second;
}

std::uint64_t
CodeBuffer::contentHash() const
{
    if (empty()) {
        return hashCodes(nullptr, 0);
    }
    RangeMemo& m = memo();
    std::call_once(m.hashOnce, [&] {
        m.hash = hashCodes(data(), size_);
        m.hashed = true;
    });
    return m.hash;
}

bool
CodeBuffer::fingerprintCached() const
{
    if (empty()) {
        return true; // the empty hash is a constant
    }
    std::lock_guard<std::mutex> lock(block_->mutex);
    const auto it = block_->memos.find({offset_, size_});
    return it != block_->memos.end() && it->second.hashed;
}

CodeBuffer::operator const std::vector<std::uint16_t>&() const
{
    static const std::vector<std::uint16_t> kEmpty;
    if (empty()) {
        return kEmpty;
    }
    if (offset_ == 0 && size_ == block_->codes.size()) {
        return block_->codes;
    }
    RangeMemo& m = memo();
    std::call_once(m.copyOnce,
                   [&] { m.copy.assign(begin(), end()); });
    return m.copy;
}

bool
operator==(const CodeBuffer& a, const CodeBuffer& b)
{
    if (a.size_ != b.size_) {
        return false;
    }
    return (a.block_ == b.block_ && a.offset_ == b.offset_) ||
           std::equal(a.begin(), a.end(), b.begin());
}

} // namespace localut
