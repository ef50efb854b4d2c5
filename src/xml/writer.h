// XmlWriter: serializes well-formed XML, used by the workload generators,
// the result emitter and the examples.

#ifndef VITEX_XML_WRITER_H_
#define VITEX_XML_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace vitex::xml {

/// Output sink abstraction so the same writer can fill a std::string (tests,
/// generators) or stream to a file (75 MB datasets) without buffering the
/// whole document.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual Status Write(std::string_view data) = 0;
};

/// Appends to a caller-owned std::string.
class StringSink : public OutputSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  Status Write(std::string_view data) override {
    out_->append(data);
    return Status::OK();
  }

 private:
  std::string* out_;
};

/// Writes to a file with an internal buffer.
class FileSink : public OutputSink {
 public:
  ~FileSink() override;

  /// Opens `path` for writing; returns IoError on failure.
  Status Open(const std::string& path);
  Status Write(std::string_view data) override;
  /// Flushes and closes; safe to call more than once.
  Status Close();

  /// Bytes written so far (buffered or flushed).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  void* file_ = nullptr;  // std::FILE*, kept void* to avoid <cstdio> here
  uint64_t bytes_written_ = 0;
};

/// A push-style XML serializer with balanced-tag checking. Output is
/// compact (no insignificant whitespace) and starts with an XML declaration.
class XmlWriter {
 public:
  explicit XmlWriter(OutputSink* sink);

  /// Opens `<name ...>`; attributes are passed as alternating name/value
  /// pairs via AddAttribute before the tag is closed by the next content.
  Status StartElement(std::string_view name);
  /// Adds an attribute to the element opened by the last StartElement;
  /// invalid after any content has been written into it.
  Status AddAttribute(std::string_view name, std::string_view value);
  /// Writes entity-escaped character data.
  Status Text(std::string_view text);
  /// Writes a comment.
  Status Comment(std::string_view text);
  /// Closes the most recently opened element (as `</name>` or `<name/>`).
  Status EndElement();
  /// Convenience: StartElement + Text + EndElement.
  Status TextElement(std::string_view name, std::string_view text);
  /// Verifies all elements are closed and flushes.
  Status Finish();

  int depth() const { return static_cast<int>(open_.size()); }

 private:
  Status CloseStartTagIfOpen();

  OutputSink* sink_;
  std::vector<std::string> open_;
  bool start_tag_open_ = false;
  bool wrote_declaration_ = false;
};

}  // namespace vitex::xml

#endif  // VITEX_XML_WRITER_H_
