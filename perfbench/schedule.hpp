#pragma once
// The serve-mixed schedule file written by gen.py: one record per distinct
// request body ("B <id> <endpoint> <length>\n" + body + "\n"), then the
// round of requests as body ids ("S <id> <id> ...\n").

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct RequestBody {
  std::string endpoint;  // "/v1/roofline", "/v1/sweep" or "/v1/import"
  std::string body;
};

struct Schedule {
  std::vector<RequestBody> bodies;  // indexed by body id
  std::vector<int> round;           // body ids in request order
};

inline Schedule load_schedule(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  Schedule s;
  std::string tag;
  while (in >> tag) {
    if (tag == "B") {
      std::size_t id = 0, length = 0;
      RequestBody b;
      in >> id >> b.endpoint >> length;
      in.get();  // '\n'
      b.body.resize(length);
      in.read(b.body.data(), static_cast<std::streamsize>(length));
      in.get();  // '\n'
      if (!in || id != s.bodies.size())
        throw std::runtime_error("malformed schedule body " +
                                 std::to_string(id));
      s.bodies.push_back(std::move(b));
    } else if (tag == "S") {
      std::string line;
      std::getline(in, line);
      std::istringstream ids(line);
      int id = 0;
      while (ids >> id) {
        if (id < 0 || static_cast<std::size_t>(id) >= s.bodies.size())
          throw std::runtime_error("schedule names an unknown body");
        s.round.push_back(id);
      }
    } else {
      throw std::runtime_error("malformed schedule tag " + tag);
    }
  }
  if (s.round.empty()) throw std::runtime_error("empty schedule round");
  return s;
}

/// The bytes a client sends for one request body.
inline std::string wire_request(const RequestBody& b) {
  return "POST " + b.endpoint +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(b.body.size()) + "\r\n\r\n" + b.body;
}

}  // namespace perfbench
