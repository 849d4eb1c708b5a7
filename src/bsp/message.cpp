#include "bsp/message.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace embsp::bsp {

Inbox::Inbox(std::vector<Message> messages) : owned_(std::move(messages)) {
  sort_inbox(owned_);
  messages_.reserve(owned_.size());
  for (const Message& m : owned_) {
    messages_.push_back(MessageRef{m.src, m.dst, m.seq, m.payload});
  }
}

Inbox::Inbox(std::vector<MessageRef> messages)
    : messages_(std::move(messages)) {
  sort_inbox(messages_);
}

std::size_t Inbox::total_bytes() const {
  std::size_t total = 0;
  for (const MessageRef& m : messages_) total += m.payload.size();
  return total;
}

Outbox::Outbox(std::uint32_t src, std::uint32_t nprocs)
    : src_(src), nprocs_(nprocs) {}

std::span<std::byte> Outbox::reserve(std::uint32_t dst, std::size_t size) {
  if (dst >= nprocs_) {
    throw std::out_of_range("Outbox: destination " + std::to_string(dst) +
                            " out of range (v = " + std::to_string(nprocs_) +
                            ")");
  }
  auto span = arena_.allocate(size);
  messages_.push_back(
      MessageRef{src_, dst, next_seq_++, {span.data(), span.size()}});
  total_bytes_ += size;
  return span;
}

void Outbox::send(std::uint32_t dst, std::span<const std::byte> payload) {
  auto span = reserve(dst, payload.size());
  if (!payload.empty()) {
    std::memcpy(span.data(), payload.data(), payload.size());
  }
}

std::vector<Message> Outbox::take() {
  std::vector<Message> out;
  out.reserve(messages_.size());
  for (const MessageRef& m : messages_) {
    out.push_back(
        Message{m.src, m.dst, m.seq, {m.payload.begin(), m.payload.end()}});
  }
  clear();
  return out;
}

void Outbox::clear() {
  messages_.clear();
  arena_.reset();
  total_bytes_ = 0;
  next_seq_ = 0;
}

void sort_inbox(std::vector<Message>& messages) {
  std::sort(messages.begin(), messages.end(),
            [](const Message& a, const Message& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
}

void sort_inbox(std::vector<MessageRef>& messages) {
  std::sort(messages.begin(), messages.end(),
            [](const MessageRef& a, const MessageRef& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
}

}  // namespace embsp::bsp
