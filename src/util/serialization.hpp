// Byte-level serialization for virtual-processor contexts and messages.
//
// The EM simulators (src/sim/) persist the *context* of every virtual
// processor to disk between compound supersteps, and ship messages around as
// raw bytes.  All user-visible state therefore has to round-trip through a
// small, explicit byte format.  We deliberately avoid any reflection or
// third-party serializers: a Writer appends to a byte buffer, a Reader
// consumes a span, and both are cheap enough to sit on the simulator's hot
// path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace embsp::util {

/// Appends primitive values / trivially-copyable records to a growable byte
/// buffer.  The buffer can be inspected or moved out after writing.
///
/// Three modes: a default-constructed Writer owns its buffer (move it out
/// with take()); a Writer constructed over an external buffer appends in
/// place — the zero-copy path the simulators use to serialize contexts
/// directly into block-aligned staging memory; a size-only Writer
/// (`Writer(Writer::size_only)`) counts the bytes every call would append
/// and stores none of them.  In external mode, size() reports the bytes
/// written *by this Writer* (the external buffer may already hold earlier
/// contexts); in size-only mode bytes() stays empty.
class Writer {
 public:
  struct SizeOnly {};
  static constexpr SizeOnly size_only{};

  Writer() : buf_(&owned_) {}

  /// Append to `external` instead of an owned buffer; `external` must
  /// outlive the Writer.  Existing contents are preserved.
  explicit Writer(std::vector<std::byte>& external)
      : buf_(&external), base_(external.size()) {}

  /// Count only: size() is what serializing would have produced.
  explicit Writer(SizeOnly) : buf_(&owned_), size_only_(true) {}

  Writer(Writer&& other) noexcept
      : owned_(std::move(other.owned_)),
        buf_(other.buf_ == &other.owned_ ? &owned_ : other.buf_),
        base_(other.base_),
        size_only_(other.size_only_) {}
  Writer& operator=(Writer&& other) noexcept {
    owned_ = std::move(other.owned_);
    buf_ = other.buf_ == &other.owned_ ? &owned_ : other.buf_;
    base_ = other.base_;
    size_only_ = other.size_only_;
    return *this;
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Reserve capacity up front when the final size is known (avoids
  /// reallocation during context save).
  void reserve(std::size_t bytes) {
    if (!size_only_) buf_->reserve(base_ + bytes);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    append(reinterpret_cast<const std::byte*>(&value), sizeof(T));
  }

  void write_bytes(std::span<const std::byte> bytes) {
    append(bytes.data(), bytes.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint64_t>(v.size());
    append(reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    append(reinterpret_cast<const std::byte*>(s.data()), s.size());
  }

  [[nodiscard]] std::size_t size() const {
    return size_only_ ? base_ : buf_->size() - base_;
  }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return *buf_; }
  /// Owned mode only: move the buffer out.
  [[nodiscard]] std::vector<std::byte> take() { return std::move(*buf_); }

 private:
  void append(const std::byte* p, std::size_t n) {
    if (size_only_) {
      base_ += n;  // size-only mode: base_ is the running count
    } else if (n != 0) {
      buf_->insert(buf_->end(), p, p + n);
    }
  }

  std::vector<std::byte> owned_;
  std::vector<std::byte>* buf_;
  std::size_t base_ = 0;
  bool size_only_ = false;
};

/// Consumes a byte span produced by Writer.  Throws std::out_of_range on
/// under-run — a corrupted context read from disk must fail loudly, not
/// silently produce garbage state.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    require(sizeof(T));
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> read_bytes(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = static_cast<std::size_t>(read<std::uint64_t>());
    std::vector<T> v(n);
    if (n != 0) {
      require(n * sizeof(T));
      std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  std::string read_string() {
    const auto n = static_cast<std::size_t>(read<std::uint64_t>());
    require(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw std::out_of_range("Reader: truncated buffer (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(data_.size() - pos_) + ")");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Concept satisfied by virtual-processor context types: they must know how
/// to save themselves to a Writer and restore from a Reader.
template <typename T>
concept Serializable = requires(const T& ct, T& t, Writer& w, Reader& r) {
  { ct.serialize(w) } -> std::same_as<void>;
  { t.deserialize(r) } -> std::same_as<void>;
};

/// Serialized size of a context, measured by a size-only Writer (nothing
/// is copied).  Used by the simulators to validate the declared context
/// bound µ.
template <Serializable T>
std::size_t serialized_size(const T& value) {
  Writer w(Writer::size_only);
  value.serialize(w);
  return w.size();
}

}  // namespace embsp::util
