(* Per-backend circuit breaker.

   Closed is the healthy steady state. [failure_threshold] consecutive
   failures (connect refused, request timeout, stale health) trip it
   Open: the router stops sending that node traffic and reroutes its
   hash range, so a dead backend costs one failed attempt per key at
   most once — not a connect timeout per request. After a cooldown the
   next [acquire] transitions to Half_open and admits exactly one probe
   request; the probe's outcome either closes the breaker or re-opens
   it with the cooldown doubled (exponential backoff, capped), so a
   backend that stays dead is probed ever more lazily while a recovered
   one is readmitted within one cooldown.

   All transitions run under the mutex: the front's tick (health polls)
   and every connection handler feed the same breaker. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  cooldown_base : float;
  cooldown_cap : float;
}

let default_config = { failure_threshold = 3; cooldown_base = 0.5; cooldown_cap = 10. }

type t = {
  config : config;
  mu : Mutex.t;
  mutable state : state;
  mutable failures : int;  (* consecutive, while Closed *)
  mutable opened_at : float;
  mutable open_streak : int;  (* opens since the last success: backoff exponent *)
}

let validate config =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker: failure_threshold must be >= 1";
  if not (config.cooldown_base > 0.) then invalid_arg "Breaker: cooldown_base must be > 0";
  if config.cooldown_cap < config.cooldown_base then
    invalid_arg "Breaker: cooldown_cap must be >= cooldown_base"

let create ?(config = default_config) () =
  validate config;
  { config; mu = Mutex.create (); state = Closed; failures = 0; opened_at = 0.; open_streak = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let state t = locked t (fun () -> t.state)

let cooldown t =
  locked t (fun () ->
      if t.open_streak = 0 then t.config.cooldown_base
      else
        Float.min t.config.cooldown_cap
          (t.config.cooldown_base *. (2. ** float_of_int (t.open_streak - 1))))

let cooldown_unlocked t =
  if t.open_streak = 0 then t.config.cooldown_base
  else
    Float.min t.config.cooldown_cap
      (t.config.cooldown_base *. (2. ** float_of_int (t.open_streak - 1)))

(* May this caller send a request? Closed admits everyone; Open admits
   nobody until the cooldown elapses, at which point the first caller
   flips the breaker Half_open and becomes its single probe; Half_open
   admits nobody else until that probe settles. The caller that was
   admitted must report the outcome via [record_success] or
   [record_failure]. *)
let acquire t ~now =
  locked t (fun () ->
      match t.state with
      | Closed -> true
      | Half_open -> false
      | Open ->
        if now -. t.opened_at >= cooldown_unlocked t then begin
          t.state <- Half_open;
          true
        end
        else false)

let record_success t =
  locked t (fun () ->
      t.state <- Closed;
      t.failures <- 0;
      t.open_streak <- 0)

let trip t ~now =
  t.state <- Open;
  t.opened_at <- now;
  t.failures <- 0;
  t.open_streak <- t.open_streak + 1

let record_failure t ~now =
  locked t (fun () ->
      match t.state with
      | Closed ->
        t.failures <- t.failures + 1;
        if t.failures >= t.config.failure_threshold then trip t ~now
      | Half_open ->
        (* the probe failed: back to Open with the next-longer cooldown *)
        trip t ~now
      | Open ->
        (* a request that was already in flight when the breaker tripped;
           nothing new to learn, and extending [opened_at] would let a
           stream of stragglers postpone the probe forever *)
        ())

(* A respawned backend (new start epoch in its health reply) carries
   none of its predecessor's guilt: probe it immediately. *)
let reset t =
  locked t (fun () ->
      t.state <- Closed;
      t.failures <- 0;
      t.opened_at <- 0.;
      t.open_streak <- 0)

let state_name = function Closed -> "closed" | Open -> "open" | Half_open -> "half-open"
