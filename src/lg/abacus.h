// Abacus row-based legalizer (Spindler et al., "Abacus: fast legalization of
// standard cell circuits with minimal movement").
//
// Cells are inserted in global-placement x order. For each cell, candidate
// rows near its GP position are tried; a *trial* PlaceRow computes the
// quadratic-optimal packed position by merging clusters, and the cheapest row
// is committed. Compared to Tetris this moves cells substantially less (it
// shifts earlier cells instead of only packing forward), which is why it is
// the default legalizer for the Table 2/4 pipelines.
#pragma once

#include "db/database.h"
#include "lg/tetris.h"  // LegalizeStats

namespace xplace {
class ExecutionContext;
}

namespace xplace::lg {

/// Legalizes all movable cells of `db` in place. Requires rows. Runs on the
/// calling thread; the `ExecutionContext` parameter is ignored (the flow
/// benchmark still passes one).
LegalizeStats abacus_legalize(db::Database& db,
                              const ExecutionContext* = nullptr);

}  // namespace xplace::lg
