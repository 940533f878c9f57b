#include "storlets/storlet.h"

#include <cstring>

namespace scoop {

bool StorletInputStream::Fill(size_t hint) {
  if (stream_eof_) return false;
  // Compact the consumed prefix before growing the staging buffer so it
  // stays bounded by what the storlet leaves unread.
  if (bpos_ > 0) {
    buf_.erase(0, bpos_);
    bpos_ = 0;
  }
  size_t want = std::max(hint, kDefaultStreamChunk);
  size_t old_size = buf_.size();
  buf_.resize(old_size + want);
  Result<size_t> n = stream_->Read(buf_.data() + old_size, want);
  if (!n.ok()) {
    buf_.resize(old_size);
    stream_eof_ = true;
    status_ = n.status();
    return false;
  }
  buf_.resize(old_size + *n);
  if (*n == 0) {
    stream_eof_ = true;
    return false;
  }
  return true;
}

size_t StorletInputStream::Read(char* buf, size_t n) {
  // Serve staged bytes first, then pull straight from the stream (no
  // double copy for large reads).
  if (bpos_ < buf_.size()) {
    size_t count = std::min(n, buf_.size() - bpos_);
    std::memcpy(buf, buf_.data() + bpos_, count);
    bpos_ += count;
    consumed_ += count;
    return count;
  }
  if (stream_eof_) return 0;
  Result<size_t> got = stream_->Read(buf, n);
  if (!got.ok()) {
    stream_eof_ = true;
    status_ = got.status();
    return 0;
  }
  if (*got == 0) stream_eof_ = true;
  consumed_ += *got;
  return *got;
}

std::optional<std::string_view> StorletInputStream::ReadLine() {
  size_t scan_from = bpos_;
  for (;;) {
    size_t nl = buf_.find('\n', scan_from);
    if (nl != std::string::npos) {
      std::string_view line(buf_.data() + bpos_, nl - bpos_);
      consumed_ += nl + 1 - bpos_;
      bpos_ = nl + 1;
      return line;
    }
    scan_from = buf_.size();
    size_t before = bpos_;
    if (!Fill(kDefaultStreamChunk)) {
      // EOF (or error-as-EOF): a final unterminated line, if any.
      if (bpos_ >= buf_.size()) return std::nullopt;
      std::string_view line(buf_.data() + bpos_, buf_.size() - bpos_);
      consumed_ += line.size();
      bpos_ = buf_.size();
      return line;
    }
    // Fill() compacted the buffer; rebase the scan cursor.
    scan_from -= before;
  }
}

std::string_view StorletInputStream::Remaining() {
  // Whole-input storlet: drain everything into the staging buffer. The
  // memory bound is forfeited by the storlet's choice, not by the
  // transport.
  while (Fill(kDefaultStreamChunk)) {
  }
  return std::string_view(buf_).substr(bpos_);
}

bool StorletInputStream::AtEof() {
  if (bpos_ < buf_.size()) return false;
  if (stream_eof_) return true;
  // Probe: the only way to distinguish "more coming" from EOF on a pull
  // stream is to pull.
  return !Fill(1) && bpos_ >= buf_.size();
}

void StorletOutputStream::Write(std::string_view data) {
  bytes_written_ += data.size();
  pending_.append(data);
  if (pending_.size() >= flush_chunk_) Flush();
}

void StorletOutputStream::WriteLine(std::string_view line) {
  bytes_written_ += line.size() + 1;
  pending_.append(line);
  pending_.push_back('\n');
  if (pending_.size() >= flush_chunk_) Flush();
}

void StorletOutputStream::Flush() {
  if (pending_.empty()) return;
  if (sink_status_.ok()) sink_status_ = sink_->Write(pending_);
  pending_.clear();
}

}  // namespace scoop
