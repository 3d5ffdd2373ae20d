#include "io/proximity_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace k2 {

namespace {

constexpr uint64_t kProximityMagic = 0x6b32686f70707278ULL;  // "k2hopprx"

std::string Trim(const std::string& s) {
  const char* ws = " \t\r\n";
  const size_t begin = s.find_first_not_of(ws);
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(ws);
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitComma(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(Trim(field));
  return fields;
}

// Whole-field integer parse via std::from_chars; same contract as io/csv.cc
// (no trailing junk, optional leading '+').
template <typename T>
bool ParseField(const std::string& field, T* out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  if (begin != end && *begin == '+' && begin + 1 != end &&
      *(begin + 1) != '-') {
    ++begin;
  }
  if (begin == end) return false;
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

Status RowParseError(const std::string& path, size_t line_no,
                     const char* column, const std::string& field) {
  return Status::Invalid(path + ":" + std::to_string(line_no) + ": column '" +
                         column + "': cannot parse '" + field +
                         "' as a number");
}

}  // namespace

Status WriteProximityCsv(const ProximityLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create " + path);
  out << "t,oid_a,oid_b\n";
  for (const PairRecord& rec : log.ToRecords()) {
    out << rec.t << ',' << rec.a << ',' << rec.b << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<ProximityLog> ReadProximityCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::Invalid(path + " is empty");

  const std::vector<std::string> header = SplitComma(line);
  int col_t = -1, col_a = -1, col_b = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "t" || header[i] == "timestamp") col_t = i;
    if (header[i] == "oid_a" || header[i] == "a") col_a = i;
    if (header[i] == "oid_b" || header[i] == "b") col_b = i;
  }
  if (col_t < 0 || col_a < 0 || col_b < 0) {
    return Status::Invalid(path +
                           ": header must name t, oid_a, oid_b columns");
  }

  std::vector<PairRecord> records;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    const std::vector<std::string> fields = SplitComma(line);
    const size_t needed = static_cast<size_t>(
        std::max(col_t, std::max(col_a, col_b)) + 1);
    if (fields.size() < needed) {
      return Status::Invalid(path + ":" + std::to_string(line_no) +
                             ": too few fields");
    }
    PairRecord rec;
    if (!ParseField(fields[col_t], &rec.t)) {
      return RowParseError(path, line_no, "t", fields[col_t]);
    }
    if (!ParseField(fields[col_a], &rec.a)) {
      return RowParseError(path, line_no, "oid_a", fields[col_a]);
    }
    if (!ParseField(fields[col_b], &rec.b)) {
      return RowParseError(path, line_no, "oid_b", fields[col_b]);
    }
    if (rec.a == rec.b) {
      return Status::Invalid(path + ":" + std::to_string(line_no) +
                             ": self-loop pair (oid_a == oid_b == " +
                             std::to_string(rec.a) + ")");
    }
    records.push_back(rec);
  }
  return ProximityLog::FromRecords(std::move(records));
}

Status WriteProximityBinary(const ProximityLog& log, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const std::vector<PairRecord> records = log.ToRecords();
  const uint64_t count = records.size();
  bool ok = std::fwrite(&kProximityMagic, 8, 1, out) == 1 &&
            std::fwrite(&count, 8, 1, out) == 1;
  if (ok && count > 0) {
    ok = std::fwrite(records.data(), sizeof(PairRecord), count, out) == count;
  }
  std::fclose(out);
  if (!ok) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<ProximityLog> ReadProximityBinary(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::IOError("cannot open " + path + ": " + std::strerror(errno));
  }
  uint64_t magic = 0, count = 0;
  if (std::fread(&magic, 8, 1, in) != 1 || std::fread(&count, 8, 1, in) != 1 ||
      magic != kProximityMagic) {
    std::fclose(in);
    return Status::Invalid(path + ": not a k2hop binary proximity log");
  }
  // Same header-vs-file-size validation as io/csv.cc: never size a buffer
  // from an unvalidated header count, and no bytes past the records.
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  constexpr uint64_t kHeaderBytes = 16;
  if (ec || file_size < kHeaderBytes ||
      count != (file_size - kHeaderBytes) / sizeof(PairRecord) ||
      (file_size - kHeaderBytes) % sizeof(PairRecord) != 0) {
    std::fclose(in);
    return Status::Invalid(path + ": header claims " + std::to_string(count) +
                           " records but the file has " +
                           std::to_string(file_size) + " bytes");
  }
  std::vector<PairRecord> records(count);
  if (count > 0 &&
      std::fread(records.data(), sizeof(PairRecord), count, in) != count) {
    std::fclose(in);
    return Status::IOError("short read from " + path);
  }
  std::fclose(in);
  return ProximityLog::FromRecords(std::move(records));
}

}  // namespace k2
