(* Spans around the calls into each layer, recorded by the benchmark's
   own wrappers (Timed_mem, Timed_deque) and service hooks — nothing
   inside the library is instrumented.

   Each domain owns its buffers: a stack of open spans (the parent of
   a span is the span open beneath it on the same domain), a pending
   list of the closed spans of the current tree, per-name aggregates
   over every span closed while tracing is active, and a preallocated
   store of sampled trees (one tree in 64) that is read once all
   workers have been joined.

   A tree ends either when its root span closes (the closed-loop
   workloads, [auto_flush]) or when a service hook adopts the
   root-level spans recorded since the previous hook under a
   [sharded.push]/[sharded.pop] span built from the hook's [ns].

   Self time = span duration - the time its child spans cover. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span names; the layer is the part before the dot. *)
let dcas = 0
let dcas_strong = 1
let deque_push = 2
let deque_pop = 3
let sharded_push = 4
let sharded_pop = 5
let request = 6

let names =
  [|
    "dcas.dcas"; "dcas.dcas_strong"; "deque.push"; "deque.pop"; "sharded.push";
    "sharded.pop"; "request";
  |]

let n_names = Array.length names
let layers = [| "dcas"; "deque"; "sharded"; "request" |]

let layer_of name =
  if name <= dcas_strong then 0
  else if name <= deque_pop then 1
  else if name <= sharded_pop then 2
  else 3

(* Tree kinds: a closed-loop op, the producer and consumer halves of a
   request, and a consumer pop that found nothing. *)
let op_tree = 0
let push_half = 1
let pop_half = 2
let idle_tree = 3
let sample_mask = 63

let stack_cap = 16
let pending_cap = 1024
let span_cap = 1 lsl 18
let tree_cap = 1 lsl 16

type store = {
  b_name : int array;
  b_start : int array;
  b_stop : int array;
  b_self : int array;
  b_parent : int array;  (* index into this store, -1 for a root *)
  mutable b_n : int;
  t_kind : int array;
  t_key : int array;
  t_first : int array;
  t_len : int array;
  mutable t_n : int;
}

type dom = {
  id : int;
  mutable depth : int;
  s_name : int array;
  s_start : int array;
  s_cov : int array;
  s_slot : int array;
  mutable n : int;
  c_name : int array;
  c_start : int array;
  c_stop : int array;
  c_self : int array;
  c_parent : int array;
  count : int array;
  self : int array;
  miss : int array;  (* deque: `Full pushes and `Empty pops *)
  mutable roots : int;
  mutable store : store option;
}

let active = Atomic.make false
let auto_flush = ref true
let registry = Atomic.make []
let next_id = Atomic.make 0

let make_dom () =
  let ints n = Array.make n 0 in
  let d =
    {
      id = Atomic.fetch_and_add next_id 1;
      depth = 0;
      s_name = ints stack_cap;
      s_start = ints stack_cap;
      s_cov = ints stack_cap;
      s_slot = ints stack_cap;
      n = 0;
      c_name = ints pending_cap;
      c_start = ints pending_cap;
      c_stop = ints pending_cap;
      c_self = ints pending_cap;
      c_parent = ints pending_cap;
      count = ints n_names;
      self = ints n_names;
      miss = ints n_names;
      roots = 0;
      store = None;
    }
  in
  let rec register () =
    let l = Atomic.get registry in
    if not (Atomic.compare_and_set registry l (d :: l)) then register ()
  in
  register ();
  d

let dls = Domain.DLS.new_key make_dom

let store d =
  match d.store with
  | Some s -> s
  | None ->
      let ints n = Array.make n 0 in
      let s =
        {
          b_name = ints span_cap;
          b_start = ints span_cap;
          b_stop = ints span_cap;
          b_self = ints span_cap;
          b_parent = ints span_cap;
          b_n = 0;
          t_kind = ints tree_cap;
          t_key = ints tree_cap;
          t_first = ints tree_cap;
          t_len = ints tree_cap;
          t_n = 0;
        }
      in
      d.store <- Some s;
      s

(* Keep the pending spans as one tree when [sampled], then start afresh. *)
let flush d ~kind ~key ~sampled =
  (if sampled && d.n > 0 then
     let s = store d in
     if s.t_n < tree_cap && s.b_n + d.n <= span_cap then begin
       let base = s.b_n in
       for i = 0 to d.n - 1 do
         let j = base + i in
         s.b_name.(j) <- d.c_name.(i);
         s.b_start.(j) <- d.c_start.(i);
         s.b_stop.(j) <- d.c_stop.(i);
         s.b_self.(j) <- d.c_self.(i);
         s.b_parent.(j) <-
           (if d.c_parent.(i) < 0 then -1 else base + d.c_parent.(i))
       done;
       s.b_n <- base + d.n;
       let t = s.t_n in
       s.t_kind.(t) <- kind;
       s.t_key.(t) <- key;
       s.t_first.(t) <- base;
       s.t_len.(t) <- d.n;
       s.t_n <- t + 1
     end);
  d.n <- 0

let aggregate d ~name ~self ~miss =
  d.count.(name) <- d.count.(name) + 1;
  d.self.(name) <- d.self.(name) + self;
  if miss then d.miss.(name) <- d.miss.(name) + 1

let enter name =
  let d = Domain.DLS.get dls in
  let k = d.depth in
  d.s_name.(k) <- name;
  d.s_cov.(k) <- 0;
  d.s_slot.(k) <-
    (if Atomic.get active && d.n < pending_cap then begin
       let i = d.n in
       d.n <- i + 1;
       i
     end
     else -1);
  d.depth <- k + 1;
  d.s_start.(k) <- now ()

let close ~miss =
  let stop = now () in
  let d = Domain.DLS.get dls in
  let k = d.depth - 1 in
  d.depth <- k;
  let dur = stop - d.s_start.(k) in
  if k > 0 then d.s_cov.(k - 1) <- d.s_cov.(k - 1) + dur;
  if Atomic.get active then begin
    let name = d.s_name.(k) in
    let self = dur - d.s_cov.(k) in
    aggregate d ~name ~self ~miss;
    let i = d.s_slot.(k) in
    if i >= 0 then begin
      d.c_name.(i) <- name;
      d.c_start.(i) <- d.s_start.(k);
      d.c_stop.(i) <- stop;
      d.c_self.(i) <- self;
      d.c_parent.(i) <- (if k > 0 then d.s_slot.(k - 1) else -1)
    end;
    if k = 0 && !auto_flush then begin
      let r = d.roots in
      d.roots <- r + 1;
      flush d ~kind:op_tree ~key:r ~sampled:(r land sample_mask = 0)
    end
  end

let leave () = close ~miss:false
let leave_miss () = close ~miss:true

(* A service hook: [name] spans [start, stop] and is the parent of
   every root-level span this domain closed since the previous hook. *)
let adopt ~name ~start ~stop ~kind ~key ~sampled ~miss =
  if Atomic.get active then begin
    let d = Domain.DLS.get dls in
    let cov = ref 0 and first = ref start in
    for i = 0 to d.n - 1 do
      if d.c_parent.(i) < 0 then begin
        cov := !cov + d.c_stop.(i) - d.c_start.(i);
        if d.c_start.(i) < !first then first := d.c_start.(i)
      end
    done;
    (* the hook's [ns] comes from a microsecond clock: never let a
       child start before its parent *)
    let start = !first in
    let self = stop - start - !cov in
    aggregate d ~name ~self ~miss;
    if d.n < pending_cap then begin
      let i = d.n in
      for j = 0 to i - 1 do
        if d.c_parent.(j) < 0 then d.c_parent.(j) <- i
      done;
      d.c_name.(i) <- name;
      d.c_start.(i) <- start;
      d.c_stop.(i) <- stop;
      d.c_self.(i) <- self;
      d.c_parent.(i) <- -1;
      d.n <- i + 1
    end;
    flush d ~kind ~key ~sampled
  end

(* --- reading the buffers, after every traced domain has been joined --- *)

type summary = {
  count : int array;  (* per name, every span in the window *)
  self : int array;
  miss : int array;
  durations : int array array;  (* per name, spans of sampled trees *)
  root_ns : int;  (* summed duration of the complete sampled trees *)
  layer_self : int array;  (* per layer, self time inside those trees *)
  trees : int;  (* complete sampled trees *)
}

let sum_over doms f =
  Array.init n_names (fun i ->
      List.fold_left (fun acc d -> acc + (f d).(i)) 0 doms)

(* [requests key] is the request span [intended start, served] of a
   request whose two halves were sampled, when it lies in the window;
   without it the op trees are the roots.  At most 4096 trees, evenly
   spaced, are written to [spans_file] as JSON lines. *)
let summarise ?requests ~spans_file ~t0 () =
  let max_trees = 4096 in
  let doms =
    List.sort (fun a b -> compare a.id b.id) (Atomic.get registry)
  in
  let stores = List.filter_map (fun d -> Option.map (fun s -> (d, s)) d.store) doms in
  let durs = Array.make n_names [] in
  let layer_self = Array.make (Array.length layers) 0 in
  let root_ns = ref 0 and trees = ref 0 in
  let add_span s j =
    let name = s.b_name.(j) in
    durs.(name) <- (s.b_stop.(j) - s.b_start.(j)) :: durs.(name);
    layer_self.(layer_of name) <- layer_self.(layer_of name) + s.b_self.(j)
  in
  let each_span s t f =
    for j = s.t_first.(t) to s.t_first.(t) + s.t_len.(t) - 1 do f j done
  in
  (* trees for the span file: domain, store, tree index, and for a
     request its producer half and request span *)
  let written = ref [] in
  (match requests with
  | None ->
      List.iter
        (fun (d, s) ->
          for t = 0 to s.t_n - 1 do
            if s.t_kind.(t) = op_tree then begin
              incr trees;
              each_span s t (fun j ->
                  if s.b_parent.(j) < 0 then
                    root_ns := !root_ns + s.b_stop.(j) - s.b_start.(j);
                  add_span s j)
            end;
            written := (d, s, t, None) :: !written
          done)
        stores
  | Some span_of ->
      let pushes = Hashtbl.create 4096 in
      List.iter
        (fun (d, s) ->
          for t = 0 to s.t_n - 1 do
            if s.t_kind.(t) = push_half then
              Hashtbl.replace pushes s.t_key.(t) (d, s, t)
          done)
        stores;
      List.iter
        (fun (d, s) ->
          for t = 0 to s.t_n - 1 do
            let k = s.t_kind.(t) in
            if k = pop_half then begin
              match (Hashtbl.find_opt pushes s.t_key.(t), span_of s.t_key.(t)) with
              | Some (pd, ps, pt), Some (r0, r1) ->
                  incr trees;
                  let root s t =
                    let j = s.t_first.(t) + s.t_len.(t) - 1 in
                    (s.b_start.(j), s.b_stop.(j))
                  in
                  let a0, a1 = root ps pt and b0, b1 = root s t in
                  let covered =
                    if a1 <= b0 || b1 <= a0 then a1 - a0 + (b1 - b0)
                    else max a1 b1 - min a0 b0
                  in
                  let rself = r1 - r0 - covered in
                  root_ns := !root_ns + r1 - r0;
                  durs.(request) <- (r1 - r0) :: durs.(request);
                  let l = layer_of request in
                  layer_self.(l) <- layer_self.(l) + rself;
                  each_span ps pt (add_span ps);
                  each_span s t (add_span s);
                  written := (d, s, t, Some (pd, ps, pt, r0, r1, rself)) :: !written
              | _ -> ()
            end
            else if k = idle_tree then begin
              each_span s t (fun j ->
                  let name = s.b_name.(j) in
                  durs.(name) <- (s.b_stop.(j) - s.b_start.(j)) :: durs.(name));
              written := (d, s, t, None) :: !written
            end
          done)
        stores);
  (* the span file *)
  let all = Array.of_list (List.rev !written) in
  let stride = max 1 ((Array.length all + max_trees - 1) / max_trees) in
  let oc = open_out spans_file in
  let line ~tree ~span ~parent ~name ~domain ~start ~stop ~self =
    output_string oc
      (Harness.Json.to_string
         (Harness.Json.Obj
            [
              ("tree", Harness.Json.String tree);
              ("span", Harness.Json.Int span);
              ("parent", Harness.Json.Int parent);
              ("name", Harness.Json.String name);
              ("domain", Harness.Json.Int domain);
              ("start_ns", Harness.Json.Int (start - t0));
              ("end_ns", Harness.Json.Int (stop - t0));
              ("self_ns", Harness.Json.Int self);
            ]));
    output_char oc '\n'
  in
  let write_half ~tree ~domain ~base ~root_parent s t =
    let first = s.t_first.(t) in
    each_span s t (fun j ->
        let p = s.b_parent.(j) in
        line ~tree ~span:(base + j - first)
          ~parent:(if p < 0 then root_parent else base + p - first)
          ~name:names.(s.b_name.(j)) ~domain ~start:s.b_start.(j)
          ~stop:s.b_stop.(j) ~self:s.b_self.(j))
  in
  Array.iteri
    (fun i (d, s, t, req) ->
      if i mod stride = 0 then
        let kind = s.t_kind.(t) and k = s.t_key.(t) in
        match req with
        | Some (pd, ps, pt, r0, r1, rself) ->
            let tree = Printf.sprintf "req-%d" k in
            line ~tree ~span:0 ~parent:(-1) ~name:names.(request) ~domain:(-1)
              ~start:r0 ~stop:r1 ~self:rself;
            write_half ~tree ~domain:pd.id ~base:1 ~root_parent:0 ps pt;
            write_half ~tree ~domain:d.id ~base:(1 + ps.t_len.(pt))
              ~root_parent:0 s t
        | None ->
            let tree =
              Printf.sprintf "%s-%d-%d"
                (if kind = idle_tree then "idle" else "op")
                d.id k
            in
            write_half ~tree ~domain:d.id ~base:0 ~root_parent:(-1) s t)
    all;
  close_out oc;
  {
    count = sum_over doms (fun d -> d.count);
    self = sum_over doms (fun d -> d.self);
    miss = sum_over doms (fun d -> d.miss);
    durations = Array.map Array.of_list durs;
    root_ns = !root_ns;
    layer_self;
    trees = !trees;
  }
