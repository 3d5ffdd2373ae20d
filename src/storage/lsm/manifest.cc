#include "storage/lsm/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/crc32c.h"

namespace k2::lsm {

namespace {
constexpr char kMagicLine[] = "k2lsm-manifest v1";

bool IsPlainFileName(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos;
}
}  // namespace

Status WriteManifest(Env* env, const std::string& dir,
                     const ManifestState& state) {
  std::ostringstream body;
  body << kMagicLine << "\n";
  body << "next_seq " << state.next_seq << "\n";
  for (uint64_t seq : state.live_wals) body << "wal " << seq << "\n";
  for (const ManifestTable& t : state.tables) {
    body << "table " << t.tier << " " << t.seq << " " << t.file << " "
         << t.num_entries << "\n";
  }
  std::string text = body.str();
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "crc32c %08x\n",
                Crc32c(text.data(), text.size()));
  text += trailer;

  const std::string tmp = dir + "/" + kManifestName + ".tmp";
  const std::string final_path = dir + "/" + kManifestName;
  K2_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                      env->NewWritableFile(tmp));
  K2_RETURN_NOT_OK(file->Append(text.data(), text.size()));
  K2_RETURN_NOT_OK(file->Sync());
  K2_RETURN_NOT_OK(file->Close());
  return env->RenameFile(tmp, final_path);
}

Result<ManifestState> ReadManifest(Env* env, const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  if (!env->FileExists(path)) {
    return Status::NotFound("no MANIFEST in " + dir);
  }
  K2_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));

  // Split off and verify the CRC trailer (the last line).
  const size_t last_nl = text.find_last_of('\n');
  if (last_nl == std::string::npos || last_nl + 1 != text.size()) {
    return Status::Invalid("manifest parse error: missing trailer in " + path);
  }
  const size_t prev_nl = text.find_last_of('\n', last_nl - 1);
  const size_t trailer_start = prev_nl == std::string::npos ? 0 : prev_nl + 1;
  const std::string trailer = text.substr(trailer_start, last_nl - trailer_start);
  uint32_t stored_crc = 0;
  if (std::sscanf(trailer.c_str(), "crc32c %" SCNx32, &stored_crc) != 1) {
    return Status::Invalid("manifest parse error: bad trailer in " + path);
  }
  const uint32_t actual_crc = Crc32c(text.data(), trailer_start);
  if (actual_crc != stored_crc) {
    return Status::Invalid("manifest checksum mismatch in " + path);
  }

  ManifestState state;
  std::istringstream in(text.substr(0, trailer_start));
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    return Status::Invalid("manifest parse error: bad header in " + path);
  }
  bool have_next_seq = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "next_seq") {
      fields >> state.next_seq;
      have_next_seq = !fields.fail();
    } else if (tag == "wal") {
      uint64_t seq = 0;
      fields >> seq;
      if (fields.fail()) {
        return Status::Invalid("manifest parse error: bad wal line in " + path);
      }
      state.live_wals.push_back(seq);
    } else if (tag == "table") {
      ManifestTable t;
      fields >> t.tier >> t.seq >> t.file >> t.num_entries;
      if (fields.fail() || t.tier >= kMaxTiers || !IsPlainFileName(t.file)) {
        return Status::Invalid("manifest parse error: bad table line in " +
                               path);
      }
      state.tables.push_back(std::move(t));
    } else {
      return Status::Invalid("manifest parse error: unknown tag '" + tag +
                             "' in " + path);
    }
  }
  if (!have_next_seq) {
    return Status::Invalid("manifest parse error: missing next_seq in " + path);
  }
  // Each seq names one file and was allocated before next_seq was written.
  std::set<uint64_t> seqs;
  std::set<std::string> files;
  bool unique = true;
  for (uint64_t seq : state.live_wals) {
    unique &= seq < state.next_seq && seqs.insert(seq).second;
  }
  for (const ManifestTable& t : state.tables) {
    unique &= t.seq < state.next_seq && seqs.insert(t.seq).second &&
              files.insert(t.file).second;
  }
  if (!unique) {
    return Status::Invalid(
        "manifest parse error: seq or file reused or past next_seq in " +
        path);
  }
  return state;
}

}  // namespace k2::lsm
