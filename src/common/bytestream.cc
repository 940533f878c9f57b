#include "common/bytestream.h"

#include <algorithm>
#include <cstring>

namespace scoop {

Result<std::string> ByteStream::ReadAll() {
  std::string out;
  char buf[kDefaultStreamChunk];
  for (;;) {
    SCOOP_ASSIGN_OR_RETURN(size_t n, Read(buf, sizeof buf));
    if (n == 0) return out;
    out.append(buf, n);
  }
}

Status ByteStream::DrainTo(
    const std::function<Status(std::string_view)>& consume,
    size_t chunk_size) {
  if (chunk_size == 0) chunk_size = 1;
  std::string buf(chunk_size, '\0');
  for (;;) {
    SCOOP_ASSIGN_OR_RETURN(size_t n, Read(buf.data(), buf.size()));
    if (n == 0) return Status::OK();
    SCOOP_RETURN_IF_ERROR(consume(std::string_view(buf.data(), n)));
  }
}

Result<size_t> StringByteStream::Read(char* buf, size_t n) {
  size_t available = data_.size() - pos_;
  size_t count = std::min({n, available, chunk_size_});
  std::memcpy(buf, data_.data() + pos_, count);
  pos_ += count;
  return count;
}

Result<size_t> SharedBufferByteStream::Read(char* buf, size_t n) {
  size_t available = window_.size() - pos_;
  size_t count = std::min({n, available, chunk_size_});
  std::memcpy(buf, window_.data() + pos_, count);
  pos_ += count;
  return count;
}

Result<size_t> CallbackByteStream::Read(char* buf, size_t n) {
  if (!error_.ok()) return error_;
  while (pending_pos_ >= pending_.size()) {
    if (eof_) return static_cast<size_t>(0);
    Result<std::string> next = producer_();
    if (!next.ok()) {
      error_ = next.status();
      return error_;
    }
    pending_ = std::move(next).value();
    pending_pos_ = 0;
    if (pending_.empty()) eof_ = true;
  }
  size_t count = std::min(n, pending_.size() - pending_pos_);
  std::memcpy(buf, pending_.data() + pending_pos_, count);
  pending_pos_ += count;
  return count;
}

Result<size_t> PrefixedByteStream::Read(char* buf, size_t n) {
  if (pos_ < prefix_.size()) {
    size_t count = std::min(n, prefix_.size() - pos_);
    std::memcpy(buf, prefix_.data() + pos_, count);
    pos_ += count;
    return count;
  }
  if (rest_ == nullptr) return static_cast<size_t>(0);
  return rest_->Read(buf, n);
}

Result<size_t> CountingByteStream::Read(char* buf, size_t n) {
  Result<size_t> r = inner_->Read(buf, n);
  if (r.ok() && counter_ != nullptr && *r > 0) {
    counter_->Add(static_cast<int64_t>(*r));
  }
  return r;
}

Result<size_t> EofCallbackByteStream::Read(char* buf, size_t n) {
  Result<size_t> r = inner_->Read(buf, n);
  if (r.ok() && *r == 0 && !fired_) {
    fired_ = true;
    if (on_eof_) on_eof_();
  }
  return r;
}

Result<size_t> RecordAlignedStream::Read(char* buf, size_t n) {
  if (n == 0) return static_cast<size_t>(0);
  for (;;) {
    SCOOP_ASSIGN_OR_RETURN(std::string_view piece, NextPiece(buf, n));
    if (piece.empty()) return static_cast<size_t>(0);
    if (skipping_) {
      size_t nl = piece.find('\n');
      if (nl == std::string_view::npos) continue;  // all of it dropped
      skipping_ = false;
      piece.remove_prefix(nl + 1);
      if (piece.empty()) continue;
    }
    // Body bytes already lie in `buf`; extension bytes do not.
    if (piece.data() != buf) std::memmove(buf, piece.data(), piece.size());
    return piece.size();
  }
}

Result<std::string_view> RecordAlignedStream::NextPiece(char* buf, size_t n) {
  if (body_ != nullptr) {
    SCOOP_ASSIGN_OR_RETURN(size_t got, body_->Read(buf, n));
    if (got > 0) {
      last_char_ = buf[got - 1];
      return std::string_view(buf, got);
    }
    body_.reset();  // drained; release the object reference
  }
  while (extension_pos_ >= extension_.size()) {
    if (last_char_ == '\n' || cursor_ >= object_size_) {
      return std::string_view();
    }
    uint64_t last = std::min(cursor_ + fetch_size_, object_size_) - 1;
    SCOOP_ASSIGN_OR_RETURN(extension_, fetch_(cursor_, last));
    extension_pos_ = 0;
    cursor_ = last + 1;
    fetch_size_ = std::min(fetch_size_ * 2, kMaxExtension);
    size_t nl = extension_.find('\n');
    if (nl != std::string::npos) {
      extension_.resize(nl + 1);
      last_char_ = '\n';
    }
  }
  size_t count = std::min(n, extension_.size() - extension_pos_);
  std::string_view piece(extension_.data() + extension_pos_, count);
  extension_pos_ += count;
  return piece;
}

BoundedByteQueue::BoundedByteQueue(size_t max_bytes, Gauge* buffered_bytes,
                                   Counter* chunk_counter)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes),
      buffered_bytes_(buffered_bytes),
      chunk_counter_(chunk_counter) {}

BoundedByteQueue::~BoundedByteQueue() {
  MutexLock lock(mu_);
  if (buffered_bytes_ != nullptr && queued_bytes_ > 0) {
    buffered_bytes_->Add(-static_cast<int64_t>(queued_bytes_));
  }
}

Status BoundedByteQueue::Write(std::string_view data) {
  if (data.empty()) return Status::OK();
  MutexLock lock(mu_);
  // Admit at least one chunk even when it exceeds max_bytes_, otherwise an
  // oversized write could never complete.
  while (!read_closed_ && queued_bytes_ != 0 &&
         queued_bytes_ + data.size() > max_bytes_) {
    can_write_.Wait(mu_);
  }
  if (read_closed_) {
    return Status::Aborted("stream consumer closed before EOF");
  }
  if (write_closed_) {
    // The write side was closed out from under this producer (Poison after
    // a sibling died): nothing written now may reach the reader.
    return final_status_.ok()
               ? Status::Aborted("stream already closed for writing")
               : final_status_;
  }
  chunks_.emplace_back(data);
  queued_bytes_ += data.size();
  if (buffered_bytes_ != nullptr) {
    buffered_bytes_->Add(static_cast<int64_t>(data.size()));
  }
  if (chunk_counter_ != nullptr) chunk_counter_->Increment();
  can_read_.NotifyOne();
  return Status::OK();
}

void BoundedByteQueue::CloseWrite(Status final_status) {
  MutexLock lock(mu_);
  if (write_closed_) return;
  write_closed_ = true;
  final_status_ = std::move(final_status);
  can_read_.NotifyAll();
}

void BoundedByteQueue::Poison(Status error) {
  MutexLock lock(mu_);
  if (write_closed_) return;
  write_closed_ = true;
  final_status_ = error.ok() ? Status::Aborted("stream producer died") :
                               std::move(error);
  // Buffered chunks are from a producer that did not finish; dropping them
  // (rather than delivering a silently truncated body) is the contract.
  if (buffered_bytes_ != nullptr && queued_bytes_ > 0) {
    buffered_bytes_->Add(-static_cast<int64_t>(queued_bytes_));
  }
  chunks_.clear();
  queued_bytes_ = 0;
  front_pos_ = 0;
  can_read_.NotifyAll();
  can_write_.NotifyAll();
}

Result<size_t> BoundedByteQueue::Read(char* buf, size_t n) {
  MutexLock lock(mu_);
  while (chunks_.empty() && !write_closed_) can_read_.Wait(mu_);
  if (chunks_.empty()) {
    if (!final_status_.ok()) return final_status_;
    return static_cast<size_t>(0);
  }
  const std::string& front = chunks_.front();
  size_t count = std::min(n, front.size() - front_pos_);
  std::memcpy(buf, front.data() + front_pos_, count);
  front_pos_ += count;
  queued_bytes_ -= count;
  if (buffered_bytes_ != nullptr) {
    buffered_bytes_->Add(-static_cast<int64_t>(count));
  }
  if (front_pos_ >= front.size()) {
    chunks_.pop_front();
    front_pos_ = 0;
  }
  can_write_.NotifyOne();
  return count;
}

void BoundedByteQueue::CloseRead() {
  MutexLock lock(mu_);
  read_closed_ = true;
  can_write_.NotifyAll();
}

}  // namespace scoop
