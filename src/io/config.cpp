#include "io/config.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace antmd::io {
namespace {

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

RunConfig RunConfig::from_file(const std::string& path) {
  std::ifstream in(path);
  ANTMD_REQUIRE(in.good(), "cannot open config file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return from_string(os.str());
}

RunConfig RunConfig::from_string(const std::string& text) {
  RunConfig cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(lineno) +
                        " is not 'key = value': " + line);
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("empty key on config line " + std::to_string(lineno));
    }
    if (cfg.entries_.count(key)) {
      throw ConfigError("duplicate config key: " + key);
    }
    cfg.entries_[key] = value;
  }
  return cfg;
}

bool RunConfig::has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::string RunConfig::get_string(const std::string& key,
                                  const std::string& fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? fallback : it->second;
}

double RunConfig::get_double(const std::string& key, double fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    size_t pos = 0;
    double v = std::stod(it->second, &pos);
    ANTMD_REQUIRE(pos == it->second.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' expects a number, got '" +
                      it->second + "'");
  }
}

int RunConfig::get_int(const std::string& key, int fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    size_t pos = 0;
    int v = std::stoi(it->second, &pos);
    ANTMD_REQUIRE(pos == it->second.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' expects an integer, got '" +
                      it->second + "'");
  }
}

bool RunConfig::get_bool(const std::string& key, bool fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "no" || v == "0") return false;
  throw ConfigError("config key '" + key + "' expects a boolean, got '" + v +
                    "'");
}

std::string RunConfig::require_string(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw ConfigError("missing required config key: " + key);
  }
  return it->second;
}

}  // namespace antmd::io
