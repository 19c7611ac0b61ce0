#ifndef RTP_COMMON_ALPHABET_H_
#define RTP_COMMON_ALPHABET_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/check.h"

namespace rtp {

// Interned identifier of a label of the finite alphabet Sigma.
using LabelId = uint32_t;

inline constexpr LabelId kInvalidLabel = UINT32_MAX;

// The paper partitions Sigma into element labels (EL), attribute labels (A)
// and the text marker. We follow XML convention: attribute labels start
// with '@'; the text marker is the reserved label "#text"; the document
// root is labeled with the reserved label "/" (a member of EL).
enum class LabelKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
};

// Interning table for labels. Documents, patterns, schemas and automata
// that are meant to interact must share one Alphabet instance.
//
// The table always contains the two reserved labels:
//   id 0: "/"      (root element label)
//   id 1: "#text"  (the text marker, written as a bottom symbol in the paper)
//
// The table is append-only and may be shared between threads. Intern and
// Find take one short private mutex. An interned name never moves: names
// live in chunks that are allocated once and never reallocated, so Name
// and Kind of an id the caller already holds take no lock. size() is an
// atomic read, and every id below it may be read.
class Alphabet {
 public:
  Alphabet() {
    RTP_CHECK(Intern("/") == kRootLabel);
    RTP_CHECK(Intern("#text") == kTextLabel);
  }

  Alphabet(const Alphabet&) = delete;
  Alphabet& operator=(const Alphabet&) = delete;

  static constexpr LabelId kRootLabel = 0;
  static constexpr LabelId kTextLabel = 1;

  // Returns the id of `name`, interning it if new.
  LabelId Intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const LabelId id = size_.load(std::memory_order_relaxed);
    RTP_CHECK(id < kInvalidLabel);
    const Slot slot = SlotOf(id);
    if (slot.offset == 0) {
      chunks_[slot.chunk] =
          std::make_unique<std::string[]>(kFirstChunk << slot.chunk);
    }
    std::string& stored = chunks_[slot.chunk][slot.offset];
    stored.assign(name);
    // The key views the stored name, which never moves.
    ids_.emplace(std::string_view(stored), id);
    size_.store(id + 1, std::memory_order_release);
    return id;
  }

  // Returns the id of `name` or kInvalidLabel if it was never interned.
  LabelId Find(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(name);
    return it == ids_.end() ? kInvalidLabel : it->second;
  }

  const std::string& Name(LabelId id) const {
    RTP_CHECK(id < size());
    // Most documents' labels fit the first chunk; skip the arithmetic.
    if (id < kFirstChunk) return chunks_[0][id];
    const Slot slot = SlotOf(id);
    return chunks_[slot.chunk][slot.offset];
  }

  static LabelKind KindOf(std::string_view name) {
    if (name == "#text") return LabelKind::kText;
    if (!name.empty() && name[0] == '@') return LabelKind::kAttribute;
    return LabelKind::kElement;
  }

  LabelKind Kind(LabelId id) const { return KindOf(Name(id)); }

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Chunk k holds kFirstChunk << k names, so 27 chunks cover every id
  // below kInvalidLabel.
  static constexpr uint64_t kFirstChunk = 64;
  static constexpr int kNumChunks = 27;

  struct Slot {
    int chunk;
    uint64_t offset;
  };

  // Ids kFirstChunk * (2^k - 1) up to kFirstChunk * (2^(k+1) - 1) - 1 are
  // chunk k.
  static Slot SlotOf(LabelId id) {
    const uint64_t q = uint64_t{id} / kFirstChunk + 1;
    const int chunk = std::bit_width(q) - 1;
    return {chunk, id - kFirstChunk * ((uint64_t{1} << chunk) - 1)};
  }

  mutable std::mutex mu_;
  // Guarded by mu_.
  std::unordered_map<std::string_view, LabelId> ids_;
  // A chunk is written under mu_ before size_ first covers it, and never
  // changes afterwards.
  std::array<std::unique_ptr<std::string[]>, kNumChunks> chunks_;
  std::atomic<LabelId> size_{0};
};

}  // namespace rtp

#endif  // RTP_COMMON_ALPHABET_H_
