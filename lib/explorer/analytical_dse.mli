(** The proposed flow of the paper's Figure 1(b): trace + miss budget in,
    set of optimal (depth, associativity) instances out — evaluated at
    several budgets at once, which is how Tables 7-30 are laid out. *)

type table = {
  name : string;
  stats : Stats.t;
  percents : int list;  (** budget percentages of [stats.max_misses] *)
  budgets : int list;  (** the corresponding absolute K values *)
  rows : (int * int list) list;
      (** (depth, required associativity per percent), by increasing depth *)
}

(** [of_histograms ?percents ~name ~stats histograms] assembles a table
    purely from already-computed per-level histograms (as produced by
    {!Analytical.histograms}) — no kernel run, no trace. This is how the
    [dse serve] result cache answers repeated and K-only re-queries:
    one solved trace yields every subsequent budget's table for free.
    [stats] calibrates the percentage budgets; the table spans exactly
    the levels the histogram array covers. *)
val of_histograms :
  ?percents:int list -> name:string -> stats:Stats.t -> int array array -> table

(** [run ?percents ?max_level ?line_words ~name trace]
    strips and analyses the trace once, then solves for each budget.
    [percents] defaults to the paper's 5, 10, 15, 20; [max_level]
    defaults to the trace's address bits; [line_words] (default 1) folds
    the trace to line addresses first (model extension beyond the
    paper). *)
val run :
  ?percents:int list ->
  ?max_level:int ->
  ?line_words:int ->
  name:string ->
  Trace.t ->
  table

(** [trim table] drops trailing rows where every budget already needs
    only a direct-mapped cache, keeping the first such row — the paper's
    tables stop once everything is 1. *)
val trim : table -> table
