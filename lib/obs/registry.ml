type entry =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Timer of Metric.timer
  | Histogram of Histogram.t

(* The table is mutated on first use of each name — which can now happen
   on a pool worker (a span closing registers its timer) — so every
   access goes through the mutex.  Lookups are module-init or span-close
   frequency, never per-gate, so the lock is not on a hot path. *)
type t = { tbl : (string, entry) Hashtbl.t; mu : Mutex.t }

let create () : t = { tbl = Hashtbl.create 64; mu = Mutex.create () }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Timer _ -> "timer"
  | Histogram _ -> "histogram"

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let find t name ~kind ~make ~extract =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl name with
  | None ->
      let cell = make () in
      Hashtbl.replace t.tbl name cell;
      (match extract cell with Some c -> c | None -> assert false)
  | Some existing -> (
      match extract existing with
      | Some c -> c
      | None ->
          invalid_arg
            (Printf.sprintf "Obs registry: %S is a %s, requested as %s" name
               (kind_name existing) kind))

let counter t name =
  find t name ~kind:"counter"
    ~make:(fun () -> Counter (Metric.make_counter ()))
    ~extract:(function Counter c -> Some c | _ -> None)

let gauge t name =
  find t name ~kind:"gauge"
    ~make:(fun () -> Gauge (Metric.make_gauge ()))
    ~extract:(function Gauge g -> Some g | _ -> None)

let timer t name =
  find t name ~kind:"timer"
    ~make:(fun () -> Timer (Metric.make_timer ()))
    ~extract:(function Timer tm -> Some tm | _ -> None)

let histogram t name =
  find t name ~kind:"histogram"
    ~make:(fun () -> Histogram (Histogram.create ()))
    ~extract:(function Histogram h -> Some h | _ -> None)

let entries t =
  locked t @@ fun () ->
  Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  locked t @@ fun () ->
  Hashtbl.iter
    (fun _ entry ->
      match entry with
      | Counter c -> Atomic.set c 0
      | Gauge g -> Atomic.set g 0
      | Timer tm -> Metric.timer_reset tm
      | Histogram h -> Histogram.reset h)
    t.tbl
