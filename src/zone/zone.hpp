// Authoritative zone contents: RRsets indexed by owner name (canonical
// order) and type, plus the lookup primitives an authoritative server
// needs (closest delegation, existence checks, NSEC3 chain neighbours).
// Point lookups go through a hash index; canonical order is walked only
// to list names and to materialize signatures (DESIGN.md §5m).
#pragma once

#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "dnscore/rr.hpp"
#include "dnssec/keys.hpp"
#include "dnssec/sign.hpp"

namespace ede::zone {

struct CanonicalLess {
  bool operator()(const dns::Name& a, const dns::Name& b) const {
    return a.canonical_compare(b) == std::strong_ordering::less;
  }
};

/// Signatures sign_zone owes but has not computed yet: the RRsets it
/// would sign, in its order, and what to sign them with (DESIGN.md §5k).
struct PendingSignatures {
  struct Target {
    dns::Name owner;
    dns::RRType type;
    /// The RRSIGs over this RRset once first asked for (KSK before ZSK
    /// on DNSKEY); empty until then.
    std::vector<dns::RrsigRdata> made;
  };
  dnssec::SigningKey ksk;
  dnssec::SigningKey zsk;
  dnssec::SignatureWindow window;
  bool sign_dnskey_with_zsk = true;
  /// Owners in canonical order, types ascending within an owner.
  std::vector<Target> targets;
};

class Zone {
 public:
  explicit Zone(dns::Name origin, std::uint32_t default_ttl = 3600)
      : origin_(std::move(origin)), default_ttl_(default_ttl) {}
  // The lookup index holds iterators into the node map: a move carries
  // them along with the nodes, a copy rebuilds them over its own nodes.
  Zone(const Zone& other);
  Zone& operator=(const Zone& other);
  Zone(Zone&&) = default;
  Zone& operator=(Zone&&) = default;

  [[nodiscard]] const dns::Name& origin() const { return origin_; }
  [[nodiscard]] std::uint32_t default_ttl() const { return default_ttl_; }

  // Pending signatures are made over the content at sign_zone time, so
  // every accessor that can change content or expose RRSIG sets (add,
  // remove, find_mutable, the signature removers, find(name, RRSIG),
  // at() and record_count()) first materializes all of them into RRSIG
  // RRsets, in sign_zone's order. A zone with pending signatures changes
  // under const reads and must stay on one thread.

  /// Add one record (merged into the owner/type RRset).
  void add(const dns::ResourceRecord& rr);
  void add(const dns::Name& name, dns::RRType type, dns::Rdata rdata);
  void add(const dns::Name& name, dns::RRType type, dns::Rdata rdata,
           std::uint32_t ttl);

  /// Remove an entire RRset. Returns true if something was removed.
  bool remove(const dns::Name& name, dns::RRType type);

  /// Remove every RRSIG in the zone whose type_covered == `covered`
  /// (testbed mutators: rrsig-no-a, nsec3-rrsig-missing, ...).
  std::size_t remove_signatures_covering(dns::RRType covered);

  /// Remove all RRSIG records everywhere.
  std::size_t remove_all_signatures();

  [[nodiscard]] const dns::RRset* find(const dns::Name& name,
                                       dns::RRType type) const;
  [[nodiscard]] dns::RRset* find_mutable(const dns::Name& name,
                                         dns::RRType type);

  /// All RRsets at a name (empty vector if the name does not exist).
  [[nodiscard]] std::vector<const dns::RRset*> at(const dns::Name& name) const;

  /// RRSIG rdatas at `name` whose type_covered equals `covered`: those
  /// present, then the pending ones, each signed on its first request.
  [[nodiscard]] std::vector<dns::RrsigRdata> signatures(
      const dns::Name& name, dns::RRType covered) const;

  /// sign_zone's hook: owe signatures over `pending.targets`.
  void defer_signatures(PendingSignatures pending);

  [[nodiscard]] bool name_exists(const dns::Name& name) const;

  /// True if `name` (below the origin) sits at or under a delegation cut,
  /// returning the cut name if so.
  [[nodiscard]] std::optional<dns::Name> delegation_for(
      const dns::Name& name) const;

  /// Owner names in canonical order.
  [[nodiscard]] std::vector<dns::Name> names() const;

  /// In-bailiwick authoritative names (excludes names occluded below
  /// delegation cuts), for NSEC3 chain construction.
  [[nodiscard]] std::vector<dns::Name> authoritative_names() const;

  /// Total record count (for inventory printing).
  [[nodiscard]] std::size_t record_count() const;

 private:
  using TypeMap = std::map<dns::RRType, dns::RRset>;
  using NodeMap = std::map<dns::Name, TypeMap, CanonicalLess>;
  using Node = NodeMap::iterator;
  /// Hashes and compares an index slot by its node's owner name, and a
  /// bare name the same way (heterogeneous lookup), so the index stores
  /// no name of its own.
  struct NodeHash {
    using is_transparent = void;
    std::size_t operator()(const dns::Name& name) const { return name.hash(); }
    std::size_t operator()(Node node) const { return node->first.hash(); }
  };
  struct NodeEq {
    using is_transparent = void;
    bool operator()(Node a, Node b) const { return a == b; }
    bool operator()(const dns::Name& a, Node b) const { return a == b->first; }
    bool operator()(Node a, const dns::Name& b) const { return a->first == b; }
  };

  /// The node owning `name`, or nodes_.end(); one hash probe.
  [[nodiscard]] Node find_node(const dns::Name& name) const;
  /// Erase a node from the map and the index.
  Node erase_node(Node node);
  static void merge(TypeMap& node, const dns::ResourceRecord& rr);
  /// find() without materializing.
  [[nodiscard]] const dns::RRset* find_stored(const dns::Name& name,
                                              dns::RRType type) const;
  [[nodiscard]] const std::vector<dns::RrsigRdata>& sign(
      PendingSignatures::Target& target) const;
  void materialize_signatures() const;

  dns::Name origin_;
  std::uint32_t default_ttl_;
  // Mutable: materializing pending signatures is not an observable change.
  // The map keeps canonical order for names() and materialization; the
  // index serves every point lookup. Both are thread-confined like the
  // pending state (DESIGN.md §5k).
  mutable NodeMap nodes_;
  std::unordered_set<Node, NodeHash, NodeEq> index_;
  mutable std::optional<PendingSignatures> pending_;
};

}  // namespace ede::zone
