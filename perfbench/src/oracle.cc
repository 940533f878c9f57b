#include "oracle.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>

#include "common/strings.h"
#include "sql/executor.h"

namespace perfbench {

namespace {

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// "2015-MM" named by the query's first date literal, or "" for none.
std::string QueryMonth(const std::string& sql) {
  size_t at = sql.find("'2015-");
  if (at == std::string::npos || at + 8 > sql.size()) return "";
  return sql.substr(at + 1, 7);
}

}  // namespace

scoop::Result<std::vector<std::string>> RunInChild(
    const std::function<std::vector<std::string>()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) return scoop::Status::IOError("pipe failed");
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return scoop::Status::IOError("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    bool ok = true;
    for (const std::string& s : fn()) {
      uint64_t size = s.size();
      ok = ok && WriteAll(fds[1], reinterpret_cast<const char*>(&size),
                          sizeof(size));
      ok = ok && WriteAll(fds[1], s.data(), s.size());
    }
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return scoop::Status::Internal("reference child failed");
  }
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos + sizeof(uint64_t) <= bytes.size()) {
    uint64_t size = 0;
    std::copy_n(bytes.data() + pos, sizeof(size),
                reinterpret_cast<char*>(&size));
    pos += sizeof(size);
    if (size > bytes.size() - pos) {
      return scoop::Status::Internal("truncated reference stream");
    }
    out.push_back(bytes.substr(pos, size));
    pos += size;
  }
  return out;
}

std::vector<std::string> ReferenceResults(
    const scoop::GeneratorConfig& config,
    const std::vector<std::string>& queries) {
  scoop::GridPocketGenerator generator(config);
  scoop::Schema schema = scoop::GridPocketGenerator::MeterSchema();
  std::vector<scoop::Row> all = generator.MakeAllRows();
  std::map<std::string, std::vector<scoop::Row>> by_month;
  for (const scoop::Row& row : all) {
    by_month[row[1].AsString().substr(0, 7)].push_back(row);
  }
  std::vector<std::string> out;
  for (const std::string& sql : queries) {
    std::string month = QueryMonth(sql);
    const std::vector<scoop::Row>& rows =
        month.empty() ? all : by_month[month];
    auto table = scoop::ExecuteSqlOverRows(sql, schema, rows);
    // An unevaluable query has no reference; "\x01" never equals a CSV.
    out.push_back(table.ok() ? table->ToCsv() : std::string("\x01"));
  }
  return out;
}

bool CsvAlmostEqual(const std::string& got, const std::string& want) {
  if (got == want) return true;
  std::vector<std::string_view> got_rows = scoop::Split(got, '\n');
  std::vector<std::string_view> want_rows = scoop::Split(want, '\n');
  if (got_rows.size() != want_rows.size()) return false;
  for (size_t i = 0; i < got_rows.size(); ++i) {
    std::vector<std::string_view> g = scoop::Split(got_rows[i], ',');
    std::vector<std::string_view> w = scoop::Split(want_rows[i], ',');
    if (g.size() != w.size()) return false;
    for (size_t j = 0; j < g.size(); ++j) {
      if (g[j] == w[j]) continue;
      std::string gs(g[j]);
      std::string ws(w[j]);
      char* g_end = nullptr;
      char* w_end = nullptr;
      double gd = std::strtod(gs.c_str(), &g_end);
      double wd = std::strtod(ws.c_str(), &w_end);
      bool numeric = g_end != gs.c_str() && *g_end == '\0' &&
                     w_end != ws.c_str() && *w_end == '\0';
      if (!numeric ||
          std::fabs(gd - wd) > 1e-5 * std::max(std::fabs(gd), std::fabs(wd))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
