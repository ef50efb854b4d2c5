#include "xml/writer.h"

#include <cstdio>

#include "common/string_util.h"
#include "xml/escape.h"

namespace vitex::xml {

FileSink::~FileSink() { (void)Close(); }

Status FileSink::Open(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  return Status::OK();
}

Status FileSink::Write(std::string_view data) {
  if (file_ == nullptr) return Status::IoError("FileSink not open");
  size_t n = std::fwrite(data.data(), 1, data.size(),
                         static_cast<std::FILE*>(file_));
  if (n != data.size()) return Status::IoError("short write");
  bytes_written_ += n;
  return Status::OK();
}

Status FileSink::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(static_cast<std::FILE*>(file_));
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed");
  return Status::OK();
}

XmlWriter::XmlWriter(OutputSink* sink) : sink_(sink) {}

Status XmlWriter::CloseStartTagIfOpen() {
  if (!start_tag_open_) return Status::OK();
  start_tag_open_ = false;
  return sink_->Write(">");
}

Status XmlWriter::StartElement(std::string_view name) {
  if (!IsValidXmlName(name)) {
    return Status::InvalidArgument("invalid element name '" +
                                   std::string(name) + "'");
  }
  if (!wrote_declaration_) {
    wrote_declaration_ = true;
    VITEX_RETURN_IF_ERROR(
        sink_->Write("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"));
  }
  VITEX_RETURN_IF_ERROR(CloseStartTagIfOpen());
  VITEX_RETURN_IF_ERROR(sink_->Write("<"));
  VITEX_RETURN_IF_ERROR(sink_->Write(name));
  open_.emplace_back(name);
  start_tag_open_ = true;
  return Status::OK();
}

Status XmlWriter::AddAttribute(std::string_view name, std::string_view value) {
  if (!start_tag_open_) {
    return Status::InvalidArgument(
        "AddAttribute outside an open start tag (element already has "
        "content)");
  }
  if (!IsValidXmlName(name)) {
    return Status::InvalidArgument("invalid attribute name '" +
                                   std::string(name) + "'");
  }
  VITEX_RETURN_IF_ERROR(sink_->Write(" "));
  VITEX_RETURN_IF_ERROR(sink_->Write(name));
  VITEX_RETURN_IF_ERROR(sink_->Write("=\""));
  VITEX_RETURN_IF_ERROR(sink_->Write(EscapeAttribute(value)));
  return sink_->Write("\"");
}

Status XmlWriter::Text(std::string_view text) {
  if (open_.empty()) {
    return Status::InvalidArgument("text outside the root element");
  }
  VITEX_RETURN_IF_ERROR(CloseStartTagIfOpen());
  return sink_->Write(EscapeText(text));
}

Status XmlWriter::Comment(std::string_view text) {
  if (Contains(text, "--")) {
    return Status::InvalidArgument("'--' not allowed inside a comment");
  }
  VITEX_RETURN_IF_ERROR(CloseStartTagIfOpen());
  VITEX_RETURN_IF_ERROR(sink_->Write("<!--"));
  VITEX_RETURN_IF_ERROR(sink_->Write(text));
  return sink_->Write("-->");
}

Status XmlWriter::EndElement() {
  if (open_.empty()) {
    return Status::InvalidArgument("EndElement with no open element");
  }
  std::string name = std::move(open_.back());
  open_.pop_back();
  if (start_tag_open_) {
    start_tag_open_ = false;
    return sink_->Write("/>");
  }
  VITEX_RETURN_IF_ERROR(sink_->Write("</"));
  VITEX_RETURN_IF_ERROR(sink_->Write(name));
  return sink_->Write(">");
}

Status XmlWriter::TextElement(std::string_view name, std::string_view text) {
  VITEX_RETURN_IF_ERROR(StartElement(name));
  VITEX_RETURN_IF_ERROR(Text(text));
  return EndElement();
}

Status XmlWriter::Finish() {
  if (!open_.empty()) {
    return Status::InvalidArgument("Finish with unclosed element '" +
                                   open_.back() + "'");
  }
  return Status::OK();
}

}  // namespace vitex::xml
