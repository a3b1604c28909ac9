// The journal layer (obs/lockfile.hpp): one writer, one reader, for every
// JSONL journal in the repo. An exhaustive harness holds one record of each
// of the five journal schemas — ledger entry, fuzz corpus entry, engine
// shard checkpoint, progress heartbeat, soak pass — and checks the reader
// against every truncation point and every single-bit flip of the file:
// it never throws, it never returns a record that is not byte-equal to one
// that was written, and every complete line before a truncation survives.
#include "obs/lockfile.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/accumulator.hpp"
#include "exp/progress.hpp"
#include "fuzz/corpus.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "sim/world.hpp"

namespace blunt::obs {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_journal_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One record per journal schema, built by the real encoders where they
/// are public and with the writers' field layout where they are not.
std::vector<Json> five_records() {
  std::vector<Json> recs;

  BenchReport report("journal_probe");
  report.set_metric("bad_probability", 0.625);
  report.add_timing_ms("total", 1.5);
  LedgerStamp stamp;
  stamp.git_sha = "0123abcd";
  stamp.timestamp_unix_s = 1700000000;
  stamp.hostname = "host";
  stamp.build_flavor = "Release";
  recs.push_back(entry_to_json(LedgerEntry{stamp, report.to_json()}));

  fuzz::CorpusEntry entry;
  entry.target = "abd_bug";
  entry.chain_seed = 7;
  entry.score = 2;
  entry.execs = 40;
  entry.coin_script = {0, 1};
  entry.coin_tail_seed = 9;
  entry.schedule = {{sim::Event::Kind::kResume, 0, -1, "work"}};
  recs.push_back(fuzz::entry_to_json(entry));

  exp::Accumulator acc;
  acc.counter("n") += 3;
  acc.tally("hit").add(true);
  acc.stat("x").add(0.5);
  JsonObject shard;
  shard["schema"] = Json("blunt-exp-shard");
  shard["experiment"] = Json("theorem42_bound");
  shard["seed"] = Json(11);
  shard["trials"] = Json(96);
  shard["shard_size"] = Json(8);
  shard["shard"] = Json(4);
  shard["accumulator"] = acc.to_json();
  recs.emplace_back(std::move(shard));

  exp::ProgressSample sample;
  sample.experiment = "theorem42_bound";
  sample.seed = 11;
  sample.threads = 2;
  sample.t_ms = 250.0;
  sample.shards_total = 12;
  sample.shards_done = 5;
  sample.trials_total = 96;
  sample.trials_done = 40;
  sample.steals = {3, 2};
  recs.push_back(exp::progress_to_json(sample));

  JsonObject soak;
  soak["schema"] = Json("blunt-soak-pass");
  soak["version"] = Json(1);
  soak["pass"] = Json(3);
  soak["experiment"] = Json("chaos_soak");
  soak["seed"] = Json(42);
  soak["trials"] = Json(40);
  soak["wall_ms"] = Json(12.5);
  soak["exit_code"] = Json(0);
  soak["ts_unix_ms"] = Json(static_cast<std::int64_t>(1700000000000));
  recs.emplace_back(std::move(soak));
  return recs;
}

/// What each journal's loader does with a record: decode it through the
/// real decoder, rejecting anything that is not one of the five schemas.
bool decode_any(const Json& j) {
  const std::string& schema = j.at("schema").as_string();
  if (schema == "blunt-ledger-entry") {
    if (!validate_entry_json(j).empty()) return false;
    (void)entry_from_json(j);
    return true;
  }
  if (schema == "blunt-fuzz-corpus-entry") {
    (void)fuzz::entry_from_json(j);
    return true;
  }
  if (schema == "blunt-exp-shard") {
    (void)exp::Accumulator::from_json(j.at("accumulator"));
    return true;
  }
  if (schema == "blunt-exp-progress") {
    return exp::progress_from_json(j).has_value();
  }
  if (schema == "blunt-soak-pass") {
    (void)j.at("pass").as_int();
    return true;
  }
  return false;
}

/// The records read_journal hands back from `path`, as compact JSON.
std::vector<std::string> read_back(const std::string& path) {
  std::vector<std::string> got;
  (void)read_journal(path, [&got](const Json& j) {
    if (!decode_any(j)) return false;
    got.push_back(j.dump());
    return true;
  });
  return got;
}

/// The five-record journal, written through the one writer, plus where
/// each line's terminating '\n' sits.
struct Fixture {
  std::vector<std::string> written;  // each record's compact JSON
  std::string bytes;                 // the journal file
  std::vector<std::size_t> newline;  // offset of line i's '\n'
};

Fixture build_fixture(const TempFile& f) {
  Fixture fx;
  for (const Json& r : five_records()) {
    fx.written.push_back(r.dump());
    locked_append(f.path(), journal_line(r));
  }
  fx.bytes = slurp(f.path());
  for (std::size_t i = 0; i < fx.bytes.size(); ++i) {
    if (fx.bytes[i] == '\n') fx.newline.push_back(i);
  }
  return fx;
}

TEST(JournalLine, FrameIsPlainJsonWithATrailingCrc) {
  const Json record = five_records().back();
  const std::string line = journal_line(record);
  ASSERT_EQ(line.back(), '\n');
  const std::string body = line.substr(0, line.size() - 1);
  // Any JSON tool still reads the line; the reader strips the frame.
  const Json plain = Json::parse(body);
  EXPECT_NE(plain.find("crc32"), nullptr);
  ASSERT_TRUE(decode_journal_line(body).has_value());
  EXPECT_EQ(decode_journal_line(body)->dump(), record.dump());
  // A line written before framing existed decodes as it stands.
  EXPECT_EQ(decode_journal_line(record.dump())->dump(), record.dump());
  EXPECT_FALSE(decode_journal_line("not json").has_value());
  EXPECT_FALSE(decode_journal_line("[1,2]").has_value());
  EXPECT_THROW((void)journal_line(Json(JsonObject{})), std::invalid_argument);
  EXPECT_THROW((void)journal_line(Json(1)), std::invalid_argument);
}

TEST(ReadJournal, SkipsWhatTheCallbackRejectsOrThrowsOn) {
  TempFile f("callback");
  EXPECT_EQ(read_journal(f.path(), [](const Json&) { return true; }), 0);
  for (int i = 0; i < 4; ++i) {
    JsonObject o;
    o["i"] = Json(i);
    locked_append(f.path(), journal_line(Json(o)));
  }
  locked_append(f.path(), "\n  \n");  // blank lines are not counted
  std::vector<std::int64_t> kept;
  const int skipped = read_journal(f.path(), [&kept](const Json& j) {
    const std::int64_t i = j.at("i").as_int();
    if (i == 1) return false;
    if (i == 2) throw std::runtime_error("decoder gave up");
    kept.push_back(i);
    return true;
  });
  EXPECT_EQ(skipped, 2);
  EXPECT_EQ(kept, (std::vector<std::int64_t>{0, 3}));
}

TEST(JournalHarness, UntouchedJournalReadsBackEveryRecord) {
  TempFile f("whole");
  const Fixture fx = build_fixture(f);
  ASSERT_EQ(fx.newline.size(), 5u);
  EXPECT_EQ(read_back(f.path()), fx.written);
}

TEST(JournalHarness, EveryTruncationKeepsEveryCompleteLine) {
  TempFile f("source");
  const Fixture fx = build_fixture(f);
  TempFile cut("truncated");
  for (std::size_t t = 0; t <= fx.bytes.size(); ++t) {
    write_bytes(cut.path(), fx.bytes.substr(0, t));
    std::vector<std::string> got;
    ASSERT_NO_THROW(got = read_back(cut.path())) << "cut at " << t;
    // Lines whose '\n' landed survive; so does a line cut exactly at its
    // '\n' (it is whole). Nothing else, and nothing altered.
    std::size_t keep = 0;
    while (keep < fx.newline.size() && fx.newline[keep] < t) ++keep;
    if (keep < fx.newline.size() && fx.newline[keep] == t) ++keep;
    const std::vector<std::string> want(fx.written.begin(),
                                        fx.written.begin() + keep);
    ASSERT_EQ(got, want) << "cut at " << t;
  }
}

TEST(JournalHarness, EverySingleBitFlipLosesOnlyTheLinesItTouches) {
  TempFile f("source");
  const Fixture fx = build_fixture(f);
  TempFile flipped("flipped");
  std::size_t line = 0;  // the line byte i belongs to (its '\n' included)
  for (std::size_t i = 0; i < fx.bytes.size(); ++i) {
    while (fx.newline[line] < i) ++line;
    // A flipped '\n' merges the line with the next one: both are lost.
    const std::size_t last_lost =
        fx.newline[line] == i ? std::min(line + 1, fx.written.size() - 1)
                              : line;
    std::vector<std::string> want;
    for (std::size_t k = 0; k < fx.written.size(); ++k) {
      if (k < line || k > last_lost) want.push_back(fx.written[k]);
    }
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = fx.bytes;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      write_bytes(flipped.path(), bytes);
      std::vector<std::string> got;
      ASSERT_NO_THROW(got = read_back(flipped.path()))
          << "byte " << i << " bit " << bit;
      ASSERT_EQ(got, want) << "byte " << i << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace blunt::obs
