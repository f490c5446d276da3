// bench_diff: compare two BENCH_*.json reports (bench/bench_util.hpp
// JsonReport, schema v3) and fail on perf regressions.
//
//   bench_diff BASELINE.json CURRENT.json [--threshold PCT] [--key FIELD]
//              [--allow-missing]
//   bench_diff --merge OUT.json RUN.json RUN.json [RUN.json ...]
//
// Records are matched by their `name` field.  A record regresses when
// CURRENT's FIELD (default min_ns — the best-of-reps number, least noisy
// on shared CI hosts) exceeds BASELINE's by more than PCT percent
// (default 10).  A record present in BASELINE but absent from CURRENT is
// an error unless --allow-missing (a renamed bench must update its
// baseline deliberately); records new in CURRENT are reported but never
// fail.  Exit codes: 0 clean, 1 regression/missing, 2 usage or I/O or
// parse error.
//
// --merge writes the best of several runs of one bench, each from a fresh
// process, as one report: every row is the record of the run with the
// smallest min_ns for it, copied verbatim.  The runs must come from one
// build (same bench, schema, git sha and preset) and hold the same rows,
// so no row is dropped or taken from fewer runs than the others.  A slow
// process then costs a row nothing as long as one run of it was quiet,
// while the comparison gate itself stays as strict as it was.
//
// The parser below is deliberately minimal and dependency-free: it
// understands exactly the flat shape JsonReport writes (one object per
// result, string and number values, no nesting inside results) and
// rejects anything else rather than guessing.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Record {
  std::string name;
  std::map<std::string, double> fields;
  std::string raw;  ///< the record's JSON text, braces included
};

struct Report {
  std::string bench;
  int schema_version = 0;
  std::string git_sha;
  std::string build_preset;
  std::vector<Record> results;
};

/// Cursor over the raw JSON text.
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
};

std::optional<std::string> parse_string(Cursor& c) {
  if (!c.eat('"')) return std::nullopt;
  std::string out;
  while (c.pos < c.text.size() && c.text[c.pos] != '"') {
    if (c.text[c.pos] == '\\' && c.pos + 1 < c.text.size()) ++c.pos;
    out += c.text[c.pos++];
  }
  if (c.pos >= c.text.size()) return std::nullopt;
  ++c.pos;  // closing quote
  return out;
}

std::optional<double> parse_number(Cursor& c) {
  c.skip_ws();
  const char* begin = c.text.c_str() + c.pos;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  c.pos += static_cast<std::size_t>(end - begin);
  return value;
}

/// One `{"name": ..., "p": ..., ...}` result object.
std::optional<Record> parse_record(Cursor& c) {
  if (!c.eat('{')) return std::nullopt;
  const std::size_t begin = c.pos - 1;
  Record record;
  while (true) {
    auto key = parse_string(c);
    if (!key || !c.eat(':')) return std::nullopt;
    if (c.peek() == '"') {
      auto value = parse_string(c);
      if (!value) return std::nullopt;
      if (*key == "name") record.name = *value;
    } else {
      auto value = parse_number(c);
      if (!value) return std::nullopt;
      record.fields[*key] = *value;
    }
    if (c.eat(',')) continue;
    if (c.eat('}')) break;
    return std::nullopt;
  }
  record.raw = c.text.substr(begin, c.pos - begin);
  return record;
}

std::optional<Report> parse_report(const std::string& text,
                                   std::string* error) {
  Cursor c{text};
  Report report;
  if (!c.eat('{')) {
    *error = "expected top-level object";
    return std::nullopt;
  }
  while (true) {
    auto key = parse_string(c);
    if (!key || !c.eat(':')) {
      *error = "malformed key";
      return std::nullopt;
    }
    if (*key == "results") {
      if (!c.eat('[')) {
        *error = "`results` is not an array";
        return std::nullopt;
      }
      if (!c.eat(']')) {
        while (true) {
          auto record = parse_record(c);
          if (!record || record->name.empty()) {
            *error = "malformed result record (or record without a name)";
            return std::nullopt;
          }
          report.results.push_back(std::move(*record));
          if (c.eat(',')) continue;
          if (c.eat(']')) break;
          *error = "unterminated results array";
          return std::nullopt;
        }
      }
    } else if (c.peek() == '"') {
      auto value = parse_string(c);
      if (!value) {
        *error = "malformed string value";
        return std::nullopt;
      }
      if (*key == "bench") report.bench = *value;
      if (*key == "git_sha") report.git_sha = *value;
      if (*key == "build_preset") report.build_preset = *value;
    } else {
      auto value = parse_number(c);
      if (!value) {
        *error = "malformed numeric value";
        return std::nullopt;
      }
      if (*key == "schema_version") {
        report.schema_version = static_cast<int>(*value);
      }
    }
    if (c.eat(',')) continue;
    if (c.eat('}')) break;
    *error = "unterminated top-level object";
    return std::nullopt;
  }
  return report;
}

std::optional<Report> load(const char* path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = std::string("cannot open ") + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  auto report = parse_report(text, error);
  if (!report) {
    *error = std::string(path) + ": " + *error;
    return std::nullopt;
  }
  return report;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--threshold PCT] "
               "[--key FIELD] [--allow-missing]\n"
               "       %s --merge OUT.json RUN.json RUN.json [RUN.json ...]\n",
               argv0, argv0);
  return 2;
}

/// The --merge mode: see the file comment.  Exit 0 when OUT.json was
/// written, 2 on any mismatch between the runs or an I/O error.
int merge(const char* out_path, const std::vector<const char*>& run_paths) {
  std::vector<Report> runs;
  for (const char* path : run_paths) {
    std::string error;
    auto report = load(path, &error);
    if (!report) {
      std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
      return 2;
    }
    runs.push_back(std::move(*report));
  }
  const Report& first = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const Report& run = runs[r];
    if (run.bench != first.bench || run.schema_version != first.schema_version ||
        run.git_sha != first.git_sha || run.build_preset != first.build_preset) {
      std::fprintf(stderr,
                   "bench_diff: %s and %s come from different benches or "
                   "builds; merge runs of one build only\n",
                   run_paths[0], run_paths[r]);
      return 2;
    }
    if (run.results.size() != first.results.size()) {
      std::fprintf(stderr, "bench_diff: %s and %s hold different rows\n",
                   run_paths[0], run_paths[r]);
      return 2;
    }
  }
  std::string body;
  for (const Record& row : first.results) {
    const Record* best = nullptr;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const Record* match = nullptr;
      for (const Record& candidate : runs[r].results) {
        if (candidate.name == row.name) match = &candidate;
      }
      if (match == nullptr) {
        std::fprintf(stderr, "bench_diff: %s has no row `%s`\n", run_paths[r],
                     row.name.c_str());
        return 2;
      }
      const auto min_ns = match->fields.find("min_ns");
      if (min_ns == match->fields.end()) {
        std::fprintf(stderr, "bench_diff: %s: row `%s` has no min_ns\n",
                     run_paths[r], row.name.c_str());
        return 2;
      }
      if (best == nullptr || min_ns->second < best->fields.at("min_ns")) {
        best = match;
      }
    }
    body += (body.empty() ? "    " : ",\n    ") + best->raw;
  }
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,\n"
               "  \"git_sha\": \"%s\",\n  \"build_preset\": \"%s\",\n"
               "  \"results\": [\n%s\n  ]\n}\n",
               first.bench.c_str(), first.schema_version, first.git_sha.c_str(),
               first.build_preset.c_str(), body.c_str());
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", out_path);
    return 2;
  }
  std::printf("bench_diff: merged %zu run(s) of %zu row(s) into %s\n",
              runs.size(), first.results.size(), out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold_pct = 10.0;
  std::string key = "min_ns";
  bool allow_missing = false;
  const char* merge_path = nullptr;
  std::vector<const char*> positional;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--merge" && a + 1 < argc) {
      merge_path = argv[++a];
    } else if (arg == "--threshold" && a + 1 < argc) {
      char* end = nullptr;
      threshold_pct = std::strtod(argv[++a], &end);
      if (end == argv[a] || *end != '\0' || threshold_pct < 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--key" && a + 1 < argc) {
      key = argv[++a];
    } else if (arg == "--allow-missing") {
      allow_missing = true;
    } else {
      positional.push_back(argv[a]);
    }
  }
  if (merge_path != nullptr) {
    if (positional.size() < 2) return usage(argv[0]);
    return merge(merge_path, positional);
  }
  if (positional.size() != 2) return usage(argv[0]);
  const char* baseline_path = positional[0];
  const char* current_path = positional[1];

  std::string error;
  const auto baseline = load(baseline_path, &error);
  if (!baseline) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return 2;
  }
  const auto current = load(current_path, &error);
  if (!current) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return 2;
  }
  if (baseline->bench != current->bench) {
    std::fprintf(stderr,
                 "bench_diff: comparing different benches (`%s` vs `%s`)\n",
                 baseline->bench.c_str(), current->bench.c_str());
    return 2;
  }
  // Unknown provenance makes a delta unattributable (which flags, which
  // optimization level?).  Warn here; committed baselines are held to a
  // harder line by tools/check.sh bench-diff, which fails on it.
  const auto warn_provenance = [](const char* which, const char* path,
                                  const Report& report) {
    if (report.build_preset.empty() || report.build_preset == "unknown") {
      std::fprintf(stderr,
                   "bench_diff: warning: %s %s has build_preset \"%s\" — "
                   "numbers are not attributable to a build configuration "
                   "(re-run the bench from a CMake preset build)\n",
                   which, path,
                   report.build_preset.empty() ? "(missing)"
                                               : report.build_preset.c_str());
    }
  };
  warn_provenance("baseline", baseline_path, *baseline);
  warn_provenance("current", current_path, *current);

  std::map<std::string, const Record*> current_by_name;
  for (const Record& r : current->results) current_by_name[r.name] = &r;

  std::printf("bench_diff: %s  (%s @%s -> @%s, key %s, threshold +%.1f%%)\n",
              baseline->bench.c_str(), baseline_path,
              baseline->git_sha.c_str(), current->git_sha.c_str(),
              key.c_str(), threshold_pct);
  std::printf("%-34s %14s %14s %9s\n", "name", "baseline", "current",
              "delta");

  int regressions = 0;
  int missing = 0;
  for (const Record& base : baseline->results) {
    const auto it = current_by_name.find(base.name);
    if (it == current_by_name.end()) {
      std::printf("%-34s %14s %14s %9s\n", base.name.c_str(), "-", "MISSING",
                  "-");
      ++missing;
      continue;
    }
    const auto base_field = base.fields.find(key);
    const auto cur_field = it->second->fields.find(key);
    if (base_field == base.fields.end() ||
        cur_field == it->second->fields.end()) {
      std::printf("%-34s %14s %14s %9s\n", base.name.c_str(), "-", "-",
                  "no-key");
      continue;
    }
    const double b = base_field->second;
    const double c = cur_field->second;
    const double delta_pct = b > 0 ? (c / b - 1.0) * 100.0 : 0.0;
    const bool regressed = b > 0 && delta_pct > threshold_pct;
    std::printf("%-34s %14.1f %14.1f %+8.1f%%%s\n", base.name.c_str(), b, c,
                delta_pct, regressed ? "  REGRESSION" : "");
    if (regressed) ++regressions;
  }
  for (const Record& r : current->results) {
    bool known = false;
    for (const Record& base : baseline->results) {
      if (base.name == r.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::printf("%-34s %14s %14s %9s\n", r.name.c_str(), "NEW", "-", "-");
    }
  }

  if (missing > 0 && !allow_missing) {
    std::printf("bench_diff: %d baseline record(s) missing from current "
                "(rename baselines deliberately or pass --allow-missing)\n",
                missing);
    return 1;
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d regression(s) beyond +%.1f%%\n", regressions,
                threshold_pct);
    return 1;
  }
  std::printf("bench_diff: ok (%zu record(s) compared)\n",
              baseline->results.size());
  return 0;
}
