/**
 * @file
 * Persistent campaign-result store.
 *
 * Serializes every CampaignResult of a suite run to one JSON file,
 * keyed by a content hash of the producing CampaignSpec.  Suite runs
 * get three things from it:
 *
 *   --out results.json   the suite's deliverable (all class counts,
 *                        group models and homogeneity, one entry per
 *                        campaign);
 *   cache hits           a spec whose key is already in the store is
 *                        not re-run — its stored result is returned;
 *   --resume             the store is saved after every campaign
 *                        completes, so an interrupted suite restarts
 *                        from the finished prefix, not from scratch.
 *
 * Entries are kept sorted by key and doubles are written in their
 * shortest round-trip form, so a store's serialization is a pure
 * function of its contents — byte-identical for any job count or
 * campaign completion order.
 *
 * Stores are written in the merlin-store-v3 shape: outcome-only
 * results keyed by the outcome-relevant spec members.  Files in any
 * other format (including the older store formats, which keyed by
 * engine knobs too) are refused with the format they declare.
 *
 * Not internally synchronized: concurrent writers must serialize
 * access (the suite scheduler holds one mutex across put()+save()).
 */

#ifndef MERLIN_IO_RESULT_STORE_HH
#define MERLIN_IO_RESULT_STORE_HH

#include <map>
#include <string>
#include <vector>

#include "io/json.hh"
#include "merlin/campaign.hh"

namespace merlin::io
{

/** CampaignResult -> JSON (every field, including the optionals). */
Json resultToJson(const core::CampaignResult &r);

/**
 * JSON -> CampaignResult; throws FatalError on malformed input,
 * including a quarantine record with a member other than fault_key
 * and reason.
 */
core::CampaignResult resultFromJson(const Json &j);

class ResultStore
{
  public:
    /** One stored campaign: the producing spec and its result. */
    struct Entry
    {
        Json spec;
        Json result;
    };

    /** What a merge() did, for reporting. */
    struct MergeStats
    {
        std::size_t added = 0;     ///< keys new to this store
        std::size_t identical = 0; ///< keys present with identical payload
        std::size_t replaced = 0;  ///< conflicts resolved force-theirs
    };

    /** @p path may be empty for a memory-only store (no load/save IO). */
    explicit ResultStore(std::string path = "");

    const std::string &path() const { return path_; }
    std::size_t size() const { return entries_.size(); }

    /**
     * Read the store file.  @return false when the file is absent (a
     * fresh store); throws FatalError when present but malformed —
     * silently dropping a corrupt store would re-run every campaign.
     */
    bool load();

    /**
     * Atomically write the store (temp file + rename), entries sorted
     * by key.  No-op for a memory-only store.
     */
    void save() const;

    /** @return true and fill @p out when @p key is stored. */
    bool lookup(const std::string &key, core::CampaignResult &out) const;

    bool contains(const std::string &key) const;

    /** Insert or replace the entry for @p key. */
    void put(const std::string &key, Json spec,
             const core::CampaignResult &result);

    /** Remove the entry for @p key.  @return true if it existed. */
    bool erase(const std::string &key);

    /**
     * Fold @p other into this store.  Content-hash keys make the
     * operation order-independent: a key present in both sides must
     * carry a bit-identical payload (spec and result dumps), because
     * the same spec always produces the same result — a mismatch
     * means one store is corrupt or was produced by a different
     * engine, and is fatal unless @p force_theirs resolves it by
     * taking @p other's entry.  Merging the worker stores of a
     * distributed suite therefore reproduces the single-host store
     * byte-for-byte, in any order.
     */
    MergeStats merge(const ResultStore &other, bool force_theirs = false);

    /** All entries, sorted by key (what toJson()/merge() iterate). */
    const std::map<std::string, Entry> &entries() const
    {
        return entries_;
    }

    /** The full store as a JSON document (what save() writes). */
    Json toJson() const;

  private:
    std::string path_;
    std::map<std::string, Entry> entries_; ///< sorted => stable dumps
};

/**
 * Load every file of @p files and fold it into @p into (see
 * ResultStore::merge for the conflict rules).  The gather half of
 * distributed dispatch: worker stores from any number of workers, in
 * any order, reassemble the single-host store.  fatal() by name on a
 * missing or unreadable input — a gather that silently skipped a
 * worker's output would "succeed" with an incomplete store.
 */
ResultStore::MergeStats
mergeStoreFiles(ResultStore &into, const std::vector<std::string> &files,
                bool force_theirs = false);

} // namespace merlin::io

#endif // MERLIN_IO_RESULT_STORE_HH
