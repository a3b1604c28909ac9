// Crash-tolerant corpus journal: JSON round-trips, torn/foreign-line
// tolerance, concurrent append atomicity, and the canonical-compaction
// invariant (any append order, any duplication — identical bytes).
#include "fuzz/corpus.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/world.hpp"

namespace blunt::fuzz {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_fuzz_corpus_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

adversary::EventDescriptor resume_d(Pid pid, const std::string& what) {
  return {sim::Event::Kind::kResume, pid, -1, what};
}

CorpusEntry make_entry(std::uint64_t chain_seed, int score) {
  CorpusEntry e;
  e.target = "abd_bug";
  e.chain_seed = chain_seed;
  e.score = score;
  e.execs = 100 + score;
  e.coin_script = {0, 2, 1};
  e.coin_tail_seed = 0xdeadbeefULL + chain_seed;
  e.schedule = {resume_d(0, "R.query-bcast"),
                {sim::Event::Kind::kDeliver, 1, 0, "R query sn=0 from p0"},
                resume_d(static_cast<Pid>(score % 5), "work")};
  return e;
}

ViolationRecord make_violation(std::uint64_t chain_seed, int prefix_len) {
  ViolationRecord v;
  v.target = "figure1";
  v.kind = "figure1_branch";
  v.chain_seed = chain_seed;
  v.execs_to_find = 42 + static_cast<std::int64_t>(chain_seed);
  v.coin_script = {1, 0};
  v.coin_tail_seed = 99;
  v.prefix_len = prefix_len;
  v.prefix_hash = 0x1234u + chain_seed;
  v.schedule = {resume_d(0, "a"), resume_d(1, "b"), resume_d(2, "c")};
  v.shrunk = {resume_d(1, "b")};
  v.repro = "adversary::ScriptedAdversary adv;\nadv.step(...);\n";
  return v;
}

TEST(CorpusJson, EntryRoundTripsExactly) {
  const CorpusEntry e = make_entry(7, 3);
  EXPECT_EQ(entry_from_json(entry_to_json(e)), e);
}

TEST(CorpusJson, ViolationRoundTripsExactly) {
  const ViolationRecord v = make_violation(11, 17);
  EXPECT_EQ(violation_from_json(violation_to_json(v)), v);
}

TEST(CorpusJson, KeyIsContentDeterministic) {
  EXPECT_EQ(make_entry(1, 2).key(), make_entry(1, 2).key());
  EXPECT_NE(make_entry(1, 2).key(), make_entry(1, 3).key());
  EXPECT_EQ(make_violation(5, 9).key(), make_violation(5, 9).key());
  EXPECT_NE(make_violation(5, 9).key(), make_violation(6, 9).key());
}

TEST(CorpusJournal, AppendThenLoadRoundTrips) {
  TempFile f("roundtrip");
  append_entry(f.path(), make_entry(1, 1));
  append_violation(f.path(), make_violation(2, 4));
  append_entry(f.path(), make_entry(3, 5));

  const Corpus c = load_corpus(f.path());
  EXPECT_EQ(c.skipped_lines, 0);
  ASSERT_EQ(c.entries.size(), 2u);
  ASSERT_EQ(c.violations.size(), 1u);
  EXPECT_EQ(c.entries[0], make_entry(1, 1));
  EXPECT_EQ(c.entries[1], make_entry(3, 5));
  EXPECT_EQ(c.violations[0], make_violation(2, 4));
}

TEST(CorpusJournal, MissingFileIsAnEmptyCorpus) {
  const Corpus c = load_corpus(std::string(::testing::TempDir()) +
                               "blunt_fuzz_corpus_does_not_exist.jsonl");
  EXPECT_TRUE(c.entries.empty());
  EXPECT_TRUE(c.violations.empty());
  EXPECT_EQ(c.skipped_lines, 0);
}

TEST(CorpusJournal, ToleratesTornAndForeignLines) {
  TempFile f("torn");
  append_entry(f.path(), make_entry(1, 1));
  append_violation(f.path(), make_violation(2, 2));
  {
    // A foreign (non-corpus) record and a kill-9-torn partial line with no
    // trailing newline — both must be skipped, not fatal.
    std::ofstream out(f.path(), std::ios::app | std::ios::binary);
    out << "{\"record\":\"ledger\",\"unrelated\":true}\n";
    out << "\n";
    out << "{\"record\":\"fuzz_entry\",\"target\":\"abd";  // torn mid-write
  }
  const Corpus c = load_corpus(f.path());
  ASSERT_EQ(c.entries.size(), 1u);
  ASSERT_EQ(c.violations.size(), 1u);
  EXPECT_EQ(c.entries[0], make_entry(1, 1));
  EXPECT_GE(c.skipped_lines, 2);  // foreign + torn (blank may also count)
}

TEST(CorpusJournal, TornTailIsSealedByTheNextAppend) {
  // A writer killed mid-append leaves a fragment with no newline. The next
  // append must seal it into a line of its own, not glue its record onto it.
  TempFile f("torn_tail");
  append_entry(f.path(), make_entry(1, 1));
  {
    std::ofstream out(f.path(), std::ios::app | std::ios::binary);
    out << "{\"schema\":\"blunt-fuzz-corpus-entry\",\"tar";
  }
  append_violation(f.path(), make_violation(2, 2));

  const Corpus c = load_corpus(f.path());
  ASSERT_EQ(c.entries.size(), 1u);
  ASSERT_EQ(c.violations.size(), 1u);
  EXPECT_EQ(c.entries[0], make_entry(1, 1));
  EXPECT_EQ(c.violations[0], make_violation(2, 2));
  EXPECT_EQ(c.skipped_lines, 1);
}

TEST(CorpusJournal, ConcurrentAppendsNeverTearALine) {
  TempFile f("concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, t] {
      for (int i = 0; i < kPerThread; ++i) {
        append_entry(f.path(),
                     make_entry(static_cast<std::uint64_t>(t) * 1000 +
                                    static_cast<std::uint64_t>(i),
                                i % 7));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const Corpus c = load_corpus(f.path());
  EXPECT_EQ(c.skipped_lines, 0);
  EXPECT_EQ(c.entries.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(CorpusCompaction, BytesDependOnlyOnTheRecordSet) {
  TempFile a("order_a");
  TempFile b("order_b");
  // Same record SET: different append order, plus duplicates on one side
  // (what a killed-and-resumed shard produces).
  append_entry(a.path(), make_entry(1, 1));
  append_entry(a.path(), make_entry(2, 2));
  append_violation(a.path(), make_violation(3, 3));

  append_violation(b.path(), make_violation(3, 3));
  append_entry(b.path(), make_entry(2, 2));
  append_entry(b.path(), make_entry(1, 1));
  append_entry(b.path(), make_entry(2, 2));   // duplicate
  append_violation(b.path(), make_violation(3, 3));  // duplicate

  TempFile ca("compact_a");
  TempFile cb("compact_b");
  write_compacted(load_corpus(a.path()), ca.path());
  write_compacted(load_corpus(b.path()), cb.path());
  const std::string bytes_a = slurp(ca.path());
  const std::string bytes_b = slurp(cb.path());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // The compacted file is itself a loadable corpus with the deduped set.
  const Corpus c = load_corpus(ca.path());
  EXPECT_EQ(c.skipped_lines, 0);
  EXPECT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.violations.size(), 1u);
}

TEST(CorpusCompaction, KillAndResumeYieldsByteIdenticalCorpus) {
  // Clean run: every record appended once.
  TempFile clean("clean");
  for (int i = 0; i < 6; ++i) {
    append_entry(clean.path(), make_entry(static_cast<std::uint64_t>(i), i));
  }
  append_violation(clean.path(), make_violation(9, 5));

  // Crashed run: half the records land, then kill -9 tears the next line
  // mid-write; the resumed run re-executes every shard and re-appends
  // everything (duplicates of the surviving half included).
  TempFile crashed("crashed");
  for (int i = 0; i < 3; ++i) {
    append_entry(crashed.path(),
                 make_entry(static_cast<std::uint64_t>(i), i));
  }
  {
    std::ofstream out(crashed.path(), std::ios::app | std::ios::binary);
    out << "{\"record\":\"fuzz_entry\",\"target\":\"ab";  // torn
  }
  // The torn tail has no newline; the resumed writer seals it into a line of
  // its own before appending, so load skips exactly that line. Re-append the
  // full set, as a resume re-running all shards does.
  for (int i = 0; i < 6; ++i) {
    append_entry(crashed.path(),
                 make_entry(static_cast<std::uint64_t>(i), i));
  }
  append_violation(crashed.path(), make_violation(9, 5));

  const Corpus loaded = load_corpus(crashed.path());
  EXPECT_EQ(loaded.skipped_lines, 1);  // the torn line

  TempFile cc("compact_clean");
  TempFile cr("compact_resumed");
  write_compacted(load_corpus(clean.path()), cc.path());
  write_compacted(loaded, cr.path());
  EXPECT_EQ(slurp(cc.path()), slurp(cr.path()));
}

}  // namespace
}  // namespace blunt::fuzz
