#include "aio/disk.hpp"

#include <algorithm>
#include <cstring>

namespace piom::aio {

namespace {
using Guard = sync::LockGuard<sync::SpinLock>;
}  // namespace

SimDisk::SimDisk(std::string name, std::size_t capacity, DiskModel model)
    : name_(std::move(name)),
      model_(model),
      capacity_(capacity),
      queue_(model.time_scale),
      store_(capacity, 0) {}

void SimDisk::submit_read(std::size_t offset, void* buf, std::size_t len,
                          uint64_t wrid) {
  submit(Op{{DiskCompletion::Kind::kRead, wrid}, offset, buf, nullptr}, len);
}

void SimDisk::submit_write(std::size_t offset, const void* buf,
                           std::size_t len, uint64_t wrid) {
  submit(Op{{DiskCompletion::Kind::kWrite, wrid}, offset, nullptr, buf}, len);
}

std::size_t SimDisk::clamp(std::size_t offset, std::size_t len) const {
  return offset < capacity_ ? std::min(len, capacity_ - offset) : 0;
}

void SimDisk::submit(Op op, std::size_t len) {
  const std::size_t n = clamp(op.offset, len);
  op.done.bytes = n;
  op.done.ok = n > 0 || len == 0;
  // Cost model: access latency + serialisation at streaming throughput.
  queue_.enqueue(op, static_cast<int64_t>(
                         model_.access_us * 1e3 +
                         static_cast<double>(n) / model_.throughput_GBps));
}

DiskCompletion SimDisk::execute(const Op& op) {
  const DiskCompletion& c = op.done;
  Guard lk(lock_);
  if (c.kind == DiskCompletion::Kind::kRead) {
    if (c.bytes > 0) std::memcpy(op.rbuf, store_.data() + op.offset, c.bytes);
    stats_.reads++;
    stats_.bytes_read += c.bytes;
  } else {
    if (c.bytes > 0) std::memcpy(store_.data() + op.offset, op.wbuf, c.bytes);
    stats_.writes++;
    stats_.bytes_written += c.bytes;
  }
  if (!c.ok) stats_.errors++;
  return c;
}

bool SimDisk::poll(DiskCompletion& out) {
  queue_.advance([this](const Op& op) { return execute(op); });
  return queue_.poll(out);
}

void SimDisk::quiesce() {
  queue_.quiesce([this](const Op& op) { return execute(op); });
}

DiskStats SimDisk::stats() const {
  Guard lk(lock_);
  return stats_;
}

void SimDisk::poke(std::size_t offset, const void* data, std::size_t len) {
  const std::size_t n = clamp(offset, len);
  Guard lk(lock_);
  if (n > 0) std::memcpy(store_.data() + offset, data, n);
}

void SimDisk::peek(std::size_t offset, void* data, std::size_t len) const {
  const std::size_t n = clamp(offset, len);
  Guard lk(lock_);
  if (n > 0) std::memcpy(data, store_.data() + offset, n);
}

}  // namespace piom::aio
