#include "branch/predictor.hh"

#include <bit>

#include "util/logging.hh"

namespace pgss::branch
{

// ---------------------------------------------------------------- bimodal

BimodalPredictor::BimodalPredictor(std::uint32_t entries)
    : table_(entries, 1), mask_(entries - 1)
{
    util::panicIf(!std::has_single_bit(entries),
                  "bimodal table size must be a power of two");
}

std::uint32_t
BimodalPredictor::index(std::uint64_t pc) const
{
    return static_cast<std::uint32_t>(pc) & mask_;
}

bool
BimodalPredictor::predict(std::uint64_t pc) const
{
    return counter::taken(table_[index(pc)]);
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &c = table_[index(pc)];
    c = counter::update(c, taken);
}

void
BimodalPredictor::reset()
{
    std::fill(table_.begin(), table_.end(), 1);
}

std::vector<std::uint8_t>
BimodalPredictor::state() const
{
    return table_;
}

void
BimodalPredictor::setState(const std::vector<std::uint8_t> &st)
{
    util::panicIf(st.size() != table_.size(),
                  "bimodal state size mismatch");
    table_ = st;
}

// ----------------------------------------------------------------- gshare

GsharePredictor::GsharePredictor(std::uint32_t entries,
                                 std::uint32_t history_bits)
    : table_(entries, 1), mask_(entries - 1),
      history_mask_((1u << history_bits) - 1)
{
    util::panicIf(!std::has_single_bit(entries),
                  "gshare table size must be a power of two");
    util::panicIf(history_bits == 0 || history_bits > 30,
                  "gshare history bits out of range");
}

std::uint32_t
GsharePredictor::index(std::uint64_t pc) const
{
    return (static_cast<std::uint32_t>(pc) ^ history_) & mask_;
}

bool
GsharePredictor::predict(std::uint64_t pc) const
{
    return counter::taken(table_[index(pc)]);
}

void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &c = table_[index(pc)];
    c = counter::update(c, taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & history_mask_;
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), 1);
    history_ = 0;
}

std::vector<std::uint8_t>
GsharePredictor::state() const
{
    // Append the 4 history bytes after the table.
    std::vector<std::uint8_t> st = table_;
    for (int i = 0; i < 4; ++i)
        st.push_back(static_cast<std::uint8_t>(history_ >> (8 * i)));
    return st;
}

void
GsharePredictor::setState(const std::vector<std::uint8_t> &st)
{
    util::panicIf(st.size() != table_.size() + 4,
                  "gshare state size mismatch");
    std::copy(st.begin(), st.begin() + table_.size(), table_.begin());
    history_ = 0;
    for (int i = 0; i < 4; ++i)
        history_ |= static_cast<std::uint32_t>(st[table_.size() + i])
                    << (8 * i);
}

// ------------------------------------------------------------- tournament

TournamentPredictor::TournamentPredictor(std::uint32_t entries,
                                         std::uint32_t history_bits)
    : bimodal_(entries), gshare_(entries, history_bits),
      chooser_(entries, 2), mask_(entries - 1)
{
}

bool
TournamentPredictor::predict(std::uint64_t pc) const
{
    const bool use_gshare = counter::taken(
        chooser_[static_cast<std::uint32_t>(pc) & mask_]);
    return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
}

void
TournamentPredictor::update(std::uint64_t pc, bool taken)
{
    const bool bim = bimodal_.predict(pc);
    const bool gsh = gshare_.predict(pc);
    std::uint8_t &choice =
        chooser_[static_cast<std::uint32_t>(pc) & mask_];
    if (bim != gsh)
        choice = counter::update(choice, gsh == taken);
    bimodal_.update(pc, taken);
    gshare_.update(pc, taken);
}

bool
TournamentPredictor::train(std::uint64_t pc, bool taken)
{
    std::uint8_t &bim = bimodal_.table_[bimodal_.index(pc)];
    std::uint8_t &gsh = gshare_.table_[gshare_.index(pc)];
    std::uint8_t &choice =
        chooser_[static_cast<std::uint32_t>(pc) & mask_];
    const bool bim_taken = counter::taken(bim);
    const bool gsh_taken = counter::taken(gsh);
    const bool predicted = counter::taken(choice) ? gsh_taken : bim_taken;
    if (bim_taken != gsh_taken)
        choice = counter::update(choice, gsh_taken == taken);
    bim = counter::update(bim, taken);
    gsh = counter::update(gsh, taken);
    gshare_.history_ =
        ((gshare_.history_ << 1) | (taken ? 1 : 0)) &
        gshare_.history_mask_;
    return predicted;
}

void
TournamentPredictor::reset()
{
    bimodal_.reset();
    gshare_.reset();
    std::fill(chooser_.begin(), chooser_.end(), 2);
}

std::vector<std::uint8_t>
TournamentPredictor::state() const
{
    std::vector<std::uint8_t> st = bimodal_.state();
    const auto gst = gshare_.state();
    st.insert(st.end(), gst.begin(), gst.end());
    st.insert(st.end(), chooser_.begin(), chooser_.end());
    return st;
}

void
TournamentPredictor::setState(const std::vector<std::uint8_t> &st)
{
    const std::size_t bim_size = chooser_.size();
    const std::size_t gsh_size = chooser_.size() + 4;
    util::panicIf(st.size() != bim_size + gsh_size + chooser_.size(),
                  "tournament state size mismatch");
    bimodal_.setState(
        {st.begin(), st.begin() + static_cast<long>(bim_size)});
    gshare_.setState({st.begin() + static_cast<long>(bim_size),
                      st.begin() + static_cast<long>(bim_size + gsh_size)});
    std::copy(st.begin() + static_cast<long>(bim_size + gsh_size),
              st.end(), chooser_.begin());
}

} // namespace pgss::branch
