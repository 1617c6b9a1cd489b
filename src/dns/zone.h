// A DNS zone: RRsets keyed by (owner, type), plus master-file I/O and AXFR
// framing (RFC 1035 §5, RFC 5936).
//
// The root zone we simulate carries the same structural elements as the real
// one: the apex SOA/NS/DNSKEY/NSEC/ZONEMD set, per-TLD NS delegations with
// glue, DS records, and RRSIGs over every authoritative RRset.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/rdata.h"

namespace rootsim::dns {

/// An RRset: all records sharing owner, type and class.
struct RRset {
  Name name;
  RRType type = RRType::A;
  RRClass rclass = RRClass::IN;
  uint32_t ttl = 0;
  std::vector<Rdata> rdatas;

  bool empty() const { return rdatas.empty(); }
  std::vector<ResourceRecord> to_records() const;
  // Rdata order within an RRset carries no meaning (RFC 2181 §5), so two
  // RRsets are equal iff they hold the same rdatas as a multiset. A defaulted
  // (ordered) comparison would call zones rebuilt from a sorted diff unequal
  // to their originals.
  bool operator==(const RRset& other) const;
};

/// Zone container. Records are stored grouped into RRsets and iterated in
/// canonical (RFC 4034 §6.1) owner order, which is the order ZONEMD hashing
/// and NSEC chain construction require.
class Zone {
 public:
  explicit Zone(Name origin = Name()) : origin_(std::move(origin)) {}

  const Name& origin() const { return origin_; }

  /// Adds one record, merging into the existing RRset (TTL of the first
  /// record wins, duplicate rdata is dropped — RFC 2181 §5). The record's
  /// owner and rdata are moved into the RRset. A record at or after the last
  /// (owner, type) key, as in a canonical-order stream, costs one key
  /// comparison; any other record takes the tree search.
  void add(ResourceRecord rr);

  /// Removes the RRset with this owner and type. Returns true if removed.
  bool remove_rrset(const Name& name, RRType type);

  /// Removes one record (matching rdata) from its RRset, erasing the RRset
  /// when its last record goes. Returns false if the record was not present.
  bool remove(const ResourceRecord& rr);

  /// Looks up an RRset; nullptr if absent.
  const RRset* find(const Name& name, RRType type) const;

  /// All RRsets in canonical order.
  std::vector<const RRset*> rrsets() const;
  /// All RRsets with the given owner, in type order (an ordered search).
  std::vector<const RRset*> rrsets_at(const Name& name) const;

  /// The apex SOA, if present.
  std::optional<SoaData> soa() const;
  uint32_t serial() const;

  size_t rrset_count() const { return sets_.size(); }
  size_t record_count() const;

  /// True if the name exists in the zone or is a delegation owner.
  bool contains_name(const Name& name) const;

  /// The NSEC RRset whose gap holds `name` (owner < name < next, the last
  /// NSEC's gap wrapping to the apex), or nullptr. An ordered search: the
  /// nearest NSEC owner before `name`, if its gap reaches past `name`.
  const RRset* covering_nsec(const Name& name) const;

  /// Names that have authoritative data, in canonical order (for NSEC).
  std::vector<Name> authoritative_names() const;

  /// AXFR stream framing: SOA first, then all other records, SOA again.
  std::vector<ResourceRecord> axfr_records() const;

  /// Parses an AXFR stream back into a zone: first and last record must be
  /// the same SOA. Returns nullopt if framing is broken. Pass the records by
  /// std::move to build the zone from them without a copy; a stream in
  /// canonical order (what axfr_records() emits) appends every RRset at the
  /// end of the tree.
  static std::optional<Zone> from_axfr(std::vector<ResourceRecord> records,
                                       const Name& origin);

  /// Master-file rendering (one canonical-order record per line).
  std::string to_master_file() const;

  /// Master-file parsing. Supports $ORIGIN/$TTL, relative names, comments,
  /// and the record types in rdata.h. Returns nullopt with a diagnostic in
  /// `error` (if non-null) on malformed input.
  static std::optional<Zone> parse_master_file(std::string_view text,
                                               std::string* error = nullptr);

  bool operator==(const Zone& other) const { return sets_ == other.sets_; }

 private:
  struct Key {
    Name name;
    RRType type;
    bool operator==(const Key& other) const {
      return name == other.name && type == other.type;
    }
  };
  // A search key that borrows its owner, so lookups copy no name.
  struct KeyRef {
    const Name& name;
    RRType type;
  };
  // Canonical owner order (RFC 4034 §6.1), then type code; transparent, so
  // the tree is searched with a KeyRef.
  struct KeyOrder {
    using is_transparent = void;
    template <class A, class B>
    static int compare(const A& a, const B& b) {
      if (int c = a.name.canonical_compare(b.name)) return c;
      return static_cast<int>(a.type) - static_cast<int>(b.type);
    }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return compare(a, b) < 0;
    }
  };
  // First key of an owner: type codes start at 0.
  static KeyRef first_key(const Name& name) { return {name, RRType{}}; }

  Name origin_;
  std::map<Key, RRset, KeyOrder> sets_;
};

}  // namespace rootsim::dns
