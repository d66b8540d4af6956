#ifndef LOCALUT_QUANT_CODE_BUFFER_H_
#define LOCALUT_QUANT_CODE_BUFFER_H_

/**
 * @file
 * CodeBuffer: shared, copy-on-write storage for quantized code symbols
 * (the `codes` of a QuantizedMatrix).
 *
 * Ownership rule.  A CodeBuffer is a handle onto a reference-counted
 * block of codes.  Copying a handle (and so a QuantizedMatrix, a
 * GemmProblem or a ServingRequest) shares the block; slice() returns a
 * view of a contiguous range of the same block.  A shared block is
 * immutable: every mutating access (non-const operator[], data(),
 * begin(), end(), resize, assign, insert, ...) on a handle that does not
 * own its block alone first detaches it into a private copy, so no
 * write is ever visible through another handle.
 *
 * Hash memo.  contentHash() is computed at most once per (block, range),
 * thread-safe, and shared by every handle onto that range — copies and
 * repeated slices of one parent all reuse it.  A mutating access on a
 * sole owner drops the block's memos.  Equal content gives an equal
 * hash whichever block holds it.
 *
 * Aliasing rule.  A reference, pointer or iterator obtained from a
 * mutating accessor is valid only until the buffer is next copied,
 * sliced, hashed or mutated.  Writing through it after a copy would
 * write into storage the copy shares; writing through it after a hash
 * would leave the memo stale.  The supported pattern is: fill while
 * unique, then share.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace localut {

/** Shared, copy-on-write, hash-memoizing storage for code symbols. */
class CodeBuffer
{
  public:
    using value_type = std::uint16_t;
    using size_type = std::size_t;
    using iterator = std::uint16_t*;
    using const_iterator = const std::uint16_t*;

    CodeBuffer() = default;
    CodeBuffer(std::vector<std::uint16_t> codes);
    CodeBuffer(std::initializer_list<std::uint16_t> codes)
        : CodeBuffer(std::vector<std::uint16_t>(codes))
    {}
    CodeBuffer(const CodeBuffer& other) noexcept;
    CodeBuffer(CodeBuffer&& other) noexcept;
    CodeBuffer& operator=(const CodeBuffer& other) noexcept;
    CodeBuffer& operator=(CodeBuffer&& other) noexcept;
    CodeBuffer& operator=(std::initializer_list<std::uint16_t> codes);
    ~CodeBuffer() { release(); }

    // ------------------------------------------------------------ reads
    size_type size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint16_t* data() const { return data_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }
    const std::uint16_t& operator[](size_type i) const { return data_[i]; }

    /** The codes as a vector (a view materializes its range once). */
    operator const std::vector<std::uint16_t>&() const;

    // ----------------------------------------------------------- writes
    // Each detaches a shared block first; see the aliasing rule above.
    std::uint16_t* data() { return empty() ? nullptr : own().data(); }
    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    std::uint16_t& operator[](size_type i) { return own()[i]; }

    void resize(size_type count, std::uint16_t value = 0);
    void assign(size_type count, std::uint16_t value);
    template <class It> void assign(It first, It last);
    void reserve(size_type capacity);
    template <class It> iterator insert(const_iterator pos, It first, It last);

    // ---------------------------------------------------------- sharing
    /**
     * A view of codes [offset, offset + count) sharing this buffer's
     * block (no copy).  Repeated slices of one range share its memo.
     */
    CodeBuffer slice(size_type offset, size_type count) const;

    /** True when both handles reference one (non-empty) block. */
    bool
    sharesStorageWith(const CodeBuffer& other) const
    {
        return block_ != nullptr && block_ == other.block_;
    }

    /**
     * Content hash of the codes (count and values), memoized per
     * (block, range): the first call per range makes one pass, every
     * later call on any handle onto that range is O(1).
     */
    std::uint64_t contentHash() const;

    /** True when contentHash() would answer from the memo. */
    bool fingerprintCached() const;

    friend bool operator==(const CodeBuffer& a, const CodeBuffer& b);

  private:
    /** Per-range derived state, shared by every handle onto the range. */
    struct RangeMemo {
        std::once_flag hashOnce;
        std::atomic<bool> hashed{false};
        std::uint64_t hash = 0;
        std::once_flag copyOnce;
        std::vector<std::uint16_t> copy; ///< a view's vector form
    };

    struct Block {
        std::atomic<std::size_t> refs{1};
        std::vector<std::uint16_t> codes;
        std::mutex mutex; ///< guards `memos` while the block is shared
        /** Keyed by (offset, size); node-based, so references stay
         * valid while other ranges are inserted. */
        std::map<std::pair<size_type, size_type>, RangeMemo> memos;
    };

    /**
     * The block's vector, owned by this handle alone with no memos
     * (fast path inline; ownSlow() allocates, detaches or drops memos).
     */
    std::vector<std::uint16_t>&
    own()
    {
        if (block_ != nullptr && offset_ == 0 &&
            block_->refs.load() == 1 &&
            size_ == block_->codes.size() && block_->memos.empty()) {
            return block_->codes;
        }
        return ownSlow();
    }

    std::vector<std::uint16_t>& ownSlow();
    /** Re-reads data_/size_ after an owned vector was resized. */
    void
    sync()
    {
        data_ = block_->codes.data();
        size_ = block_->codes.size();
    }
    RangeMemo& memo() const;
    void release() noexcept;

    Block* block_ = nullptr;
    size_type offset_ = 0;      ///< range start within block_->codes
    size_type size_ = 0;        ///< range length
    std::uint16_t* data_ = nullptr; ///< block_->codes.data() + offset_
};

template <class It>
void
CodeBuffer::assign(It first, It last)
{
    // A fresh block: [first, last) may point into the current one.
    *this = CodeBuffer(std::vector<std::uint16_t>(first, last));
}

template <class It>
CodeBuffer::iterator
CodeBuffer::insert(const_iterator pos, It first, It last)
{
    const auto at = pos - std::as_const(*this).begin();
    std::vector<std::uint16_t>& codes = own();
    const auto it = codes.insert(codes.begin() + at, first, last);
    sync();
    return data_ + (it - codes.begin());
}

} // namespace localut

#endif // LOCALUT_QUANT_CODE_BUFFER_H_
