(** The metric registry: named counters, gauges, timers and histograms.

    Lookups are idempotent — asking twice for the same name returns the
    same cell, so engines can declare their metrics at module-init time
    and tests can reach the identical cells by name.  Asking for an
    existing name with a different kind raises [Invalid_argument]: metric
    names are a global namespace and silent aliasing would corrupt both. *)

type entry =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Timer of Metric.timer
  | Histogram of Histogram.t

type t

val create : unit -> t

val counter : t -> string -> Metric.counter
val gauge : t -> string -> Metric.gauge
val timer : t -> string -> Metric.timer
val histogram : t -> string -> Histogram.t

val entries : t -> (string * entry) list
(** All registered metrics, sorted by name. *)

val reset : t -> unit
(** Zero every cell (the cells themselves stay registered — engine-held
    handles remain valid). *)
