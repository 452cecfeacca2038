#include "zone/zone.hpp"

#include <algorithm>
#include <compare>

namespace ede::zone {

Zone::Zone(const Zone& other)
    : origin_(other.origin_),
      default_ttl_(other.default_ttl_),
      nodes_(other.nodes_),
      pending_(other.pending_) {
  index_.reserve(nodes_.size());
  for (auto node = nodes_.begin(); node != nodes_.end(); ++node)
    index_.insert(node);
}

Zone& Zone::operator=(const Zone& other) {
  if (this != &other) *this = Zone(other);
  return *this;
}

Zone::Node Zone::find_node(const dns::Name& name) const {
  const auto slot = index_.find(name);
  return slot == index_.end() ? nodes_.end() : *slot;
}

Zone::Node Zone::erase_node(Node node) {
  index_.erase(node);
  return nodes_.erase(node);
}

void Zone::merge(TypeMap& node, const dns::ResourceRecord& rr) {
  auto it = node.find(rr.type);
  if (it == node.end()) {
    node.emplace(rr.type,
                 dns::RRset{rr.name, rr.type, rr.klass, rr.ttl, {rr.rdata}});
  } else {
    it->second.rdatas.push_back(rr.rdata);
    it->second.ttl = std::min(it->second.ttl, rr.ttl);
  }
}

void Zone::add(const dns::ResourceRecord& rr) {
  materialize_signatures();
  Node node = find_node(rr.name);
  if (node == nodes_.end()) {
    node = nodes_.try_emplace(rr.name).first;
    index_.insert(node);
  }
  merge(node->second, rr);
}

void Zone::add(const dns::Name& name, dns::RRType type, dns::Rdata rdata) {
  add(name, type, std::move(rdata), default_ttl_);
}

void Zone::add(const dns::Name& name, dns::RRType type, dns::Rdata rdata,
               std::uint32_t ttl) {
  add(dns::ResourceRecord{name, type, dns::RRClass::IN, ttl,
                          std::move(rdata)});
}

bool Zone::remove(const dns::Name& name, dns::RRType type) {
  materialize_signatures();
  const Node node = find_node(name);
  if (node == nodes_.end()) return false;
  const bool removed = node->second.erase(type) > 0;
  if (node->second.empty()) erase_node(node);
  return removed;
}

std::size_t Zone::remove_signatures_covering(dns::RRType covered) {
  materialize_signatures();
  std::size_t removed = 0;
  for (auto node = nodes_.begin(); node != nodes_.end();) {
    auto sig_set = node->second.find(dns::RRType::RRSIG);
    if (sig_set != node->second.end()) {
      auto& rdatas = sig_set->second.rdatas;
      const auto new_end = std::remove_if(
          rdatas.begin(), rdatas.end(), [&](const dns::Rdata& rd) {
            const auto* sig = std::get_if<dns::RrsigRdata>(&rd);
            return sig != nullptr && sig->type_covered == covered;
          });
      removed += static_cast<std::size_t>(rdatas.end() - new_end);
      rdatas.erase(new_end, rdatas.end());
      if (rdatas.empty()) node->second.erase(sig_set);
    }
    if (node->second.empty()) {
      node = erase_node(node);
    } else {
      ++node;
    }
  }
  return removed;
}

std::size_t Zone::remove_all_signatures() {
  materialize_signatures();
  std::size_t removed = 0;
  for (auto node = nodes_.begin(); node != nodes_.end();) {
    auto sig_set = node->second.find(dns::RRType::RRSIG);
    if (sig_set != node->second.end()) {
      removed += sig_set->second.rdatas.size();
      node->second.erase(sig_set);
    }
    if (node->second.empty()) {
      node = erase_node(node);
    } else {
      ++node;
    }
  }
  return removed;
}

const dns::RRset* Zone::find(const dns::Name& name, dns::RRType type) const {
  if (type == dns::RRType::RRSIG) materialize_signatures();
  return find_stored(name, type);
}

const dns::RRset* Zone::find_stored(const dns::Name& name,
                                    dns::RRType type) const {
  const Node node = find_node(name);
  if (node == nodes_.end()) return nullptr;
  const auto it = node->second.find(type);
  return it == node->second.end() ? nullptr : &it->second;
}

dns::RRset* Zone::find_mutable(const dns::Name& name, dns::RRType type) {
  materialize_signatures();
  const Node node = find_node(name);
  if (node == nodes_.end()) return nullptr;
  const auto it = node->second.find(type);
  return it == node->second.end() ? nullptr : &it->second;
}

std::vector<const dns::RRset*> Zone::at(const dns::Name& name) const {
  materialize_signatures();
  std::vector<const dns::RRset*> out;
  const Node node = find_node(name);
  if (node == nodes_.end()) return out;
  out.reserve(node->second.size());
  for (const auto& [type, set] : node->second) out.push_back(&set);
  return out;
}

std::vector<dns::RrsigRdata> Zone::signatures(const dns::Name& name,
                                              dns::RRType covered) const {
  std::vector<dns::RrsigRdata> out;
  if (const auto* sigs = find_stored(name, dns::RRType::RRSIG)) {
    for (const auto& rd : sigs->rdatas) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rd);
      if (sig != nullptr && sig->type_covered == covered) out.push_back(*sig);
    }
  }
  if (!pending_) return out;
  auto& targets = pending_->targets;
  const auto target = std::partition_point(
      targets.begin(), targets.end(), [&](const auto& t) {
        const auto order = t.owner.canonical_compare(name);
        return std::is_lt(order) || (std::is_eq(order) && t.type < covered);
      });
  if (target != targets.end() && target->owner == name &&
      target->type == covered) {
    const auto& made = sign(*target);
    out.insert(out.end(), made.begin(), made.end());
  }
  return out;
}

void Zone::defer_signatures(PendingSignatures pending) {
  materialize_signatures();
  pending_ = std::move(pending);
}

const std::vector<dns::RrsigRdata>& Zone::sign(
    PendingSignatures::Target& target) const {
  if (!target.made.empty()) return target.made;
  const dns::RRset& rrset = *find_stored(target.owner, target.type);
  const auto sign_with = [&](const dnssec::SigningKey& key) {
    target.made.push_back(
        dnssec::sign_rrset(rrset, key, origin_, pending_->window));
  };
  if (target.type == dns::RRType::DNSKEY) {
    sign_with(pending_->ksk);
    if (pending_->sign_dnskey_with_zsk) sign_with(pending_->zsk);
  } else {
    sign_with(pending_->zsk);
  }
  return target.made;
}

void Zone::materialize_signatures() const {
  if (!pending_) return;
  for (auto& target : pending_->targets) {
    // A target is a stored RRset, so its owner's node exists.
    TypeMap& node = find_node(target.owner)->second;
    const std::uint32_t ttl = node.at(target.type).ttl;
    for (const auto& sig : sign(target)) {
      merge(node, {target.owner, dns::RRType::RRSIG, dns::RRClass::IN, ttl,
                   dns::Rdata{sig}});
    }
  }
  pending_.reset();
}

bool Zone::name_exists(const dns::Name& name) const {
  if (find_node(name) != nodes_.end()) return true;
  // Empty non-terminals exist too.
  for (const auto& [owner, types] : nodes_) {
    (void)types;
    if (owner.is_subdomain_of(name) && !(owner == name)) return true;
  }
  return false;
}

std::optional<dns::Name> Zone::delegation_for(const dns::Name& name) const {
  // Walk from just below the origin towards `name`, looking for NS cuts.
  if (!name.is_subdomain_of(origin_) || name == origin_) return std::nullopt;
  dns::Name cut = name;
  std::vector<dns::Name> chain;
  while (!(cut == origin_)) {
    chain.push_back(cut);
    cut = cut.parent();
  }
  // chain holds name ... down to the label just below origin; check from
  // the top (closest to origin) downwards.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (find(*it, dns::RRType::NS) != nullptr) return *it;
  }
  return std::nullopt;
}

std::vector<dns::Name> Zone::names() const {
  std::vector<dns::Name> out;
  out.reserve(nodes_.size());
  for (const auto& [name, types] : nodes_) {
    (void)types;
    out.push_back(name);
  }
  return out;
}

std::vector<dns::Name> Zone::authoritative_names() const {
  std::vector<dns::Name> out;
  for (const auto& [name, types] : nodes_) {
    (void)types;
    const auto cut = delegation_for(name);
    if (cut && !(name == *cut)) continue;  // occluded below a delegation
    out.push_back(name);
  }
  return out;
}

std::size_t Zone::record_count() const {
  materialize_signatures();
  std::size_t count = 0;
  for (const auto& [name, types] : nodes_) {
    (void)name;
    for (const auto& [type, set] : types) {
      (void)type;
      count += set.rdatas.size();
    }
  }
  return count;
}

}  // namespace ede::zone
