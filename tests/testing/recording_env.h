// Test IoEnv decorator: records the path of every file opened for writing
// and can silently flip one bit in the first file whose path contains a
// given fragment — a targeted version of FaultEnv's kBitFlip for tests that
// must hit one particular kind of file.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapreduce/io_env.h"

namespace ngram::testing {

class RecordingEnv final : public mr::IoEnv {
 public:
  /// An empty `flip_fragment` flips nothing.
  explicit RecordingEnv(std::string flip_fragment = "")
      : flip_fragment_(std::move(flip_fragment)) {}

  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<mr::ReadableFile>* file) override {
    return base_->NewReadableFile(path, buffer_hint, file);
  }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<mr::WritableFile>* file) override {
    std::unique_ptr<mr::WritableFile> inner;
    Status st = base_->NewWritableFile(path, &inner);
    if (!st.ok()) {
      return st;
    }
    bool flip = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      written_.push_back(path);
      if (!flip_fragment_.empty() && flipped_path_.empty() &&
          path.find(flip_fragment_) != std::string::npos) {
        flipped_path_ = path;
        flip = true;
      }
    }
    *file = flip ? std::make_unique<FlippingFile>(std::move(inner))
                 : std::move(inner);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Unlink(const std::string& path) override {
    return base_->Unlink(path);
  }
  Status FileSize(const std::string& path, uint64_t* size) override {
    return base_->FileSize(path, size);
  }

  /// Every path opened for writing, in order (temp names included).
  std::vector<std::string> written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_;
  }
  /// The file whose first write had a bit flipped; empty if none.
  std::string flipped_path() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flipped_path_;
  }

 private:
  /// Flips the lowest bit of the middle byte of its first write.
  class FlippingFile final : public mr::WritableFile {
   public:
    explicit FlippingFile(std::unique_ptr<mr::WritableFile> inner)
        : inner_(std::move(inner)) {}
    Status Write(const char* data, size_t n) override {
      if (done_ || n == 0) {
        return inner_->Write(data, n);
      }
      done_ = true;
      std::string copy(data, n);
      copy[n / 2] = static_cast<char>(copy[n / 2] ^ 1);
      return inner_->Write(copy.data(), n);
    }
    Status Sync() override { return inner_->Sync(); }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<mr::WritableFile> inner_;
    bool done_ = false;
  };

  mr::IoEnv* const base_ = mr::IoEnv::Default();
  const std::string flip_fragment_;
  mutable std::mutex mu_;
  std::vector<std::string> written_;
  std::string flipped_path_;
};

}  // namespace ngram::testing
