// Quickstart: build a DNS response carrying Extended DNS Errors, put it on
// the wire, and read the errors back — the library's core API in ~40 lines.
//
//   $ ./quickstart
#include <cstdio>

#include "dnscore/message.hpp"
#include "edns/ede.hpp"
#include "edns/edns.hpp"

int main() {
  using namespace ede;

  // 1. A SERVFAIL response for a query that hit a lame delegation.
  dns::Message response =
      dns::make_query(0x1d0c, dns::Name::of("broken.example.com"),
                      dns::RRType::A);
  response.header.qr = true;
  response.header.ra = true;
  response.header.rcode = dns::RCode::SERVFAIL;

  // 2. Attach RFC 8914 Extended DNS Errors explaining *why* it failed —
  //    the generic RCODE alone cannot carry this.
  edns::add_extended_error(
      response, {edns::EdeCode::NoReachableAuthority, ""});
  edns::add_extended_error(
      response, {edns::EdeCode::NetworkError,
                 "192.0.2.53:53 rcode=REFUSED for broken.example.com A"});

  // 3. Serialize to RFC 1035 wire format and parse it back, as a stub
  //    resolver on the other end of the socket would.
  const auto wire = response.serialize();
  std::printf("wire message: %zu bytes\n\n", wire.size());

  const auto parsed = dns::Message::parse(wire);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.error().message.c_str());
    return 1;
  }

  // 4. Read the extended errors back out.
  std::printf("%s\n", parsed.value().to_string().c_str());
  std::printf(";; EXTENDED DNS ERRORS:\n");
  for (const auto& error : edns::get_extended_errors(parsed.value())) {
    std::printf(";; %s\n", error.to_string().c_str());
  }
  return 0;
}
