"""Wire round-trip guarantees of the Serving API v2 envelopes.

Property-style over seeded payloads: every envelope shape (requests,
success / failure / partial-result responses) and every taxonomy error must
survive ``to_json`` / ``from_json`` byte-stably — decode(encode(x)) encodes
to the identical bytes, and the typed objects come back equal.
"""

import json

import numpy as np
import pytest

from repro.errors import (
    ApiError,
    DeadlineExceededError,
    ERROR_CODES,
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    UnavailableError,
    error_from_dict,
    error_from_exception,
)
from repro.cluster.shard import ShardKilledError, ShardOverloadError
from repro.gateway import API_VERSION, ApiRequest, ApiResponse
from repro.serve.types import PredictRequest, PredictResponse

SEEDS = range(8)


def _random_predict_payload(rng) -> dict:
    """A seeded PredictRequest wire dict (the payload class envelopes carry)."""
    batch = rng.standard_normal((int(rng.integers(1, 3)), 3, 4, 4))
    request = PredictRequest(
        model_id=f"tenant-{int(rng.integers(0, 16))}",
        inputs=batch,
        request_id=f"req-{int(rng.integers(0, 10**6)):06d}",
    )
    return request.to_dict()


def _random_request(rng) -> ApiRequest:
    method = ["predict", "predict_batch", "stats", "health"][int(rng.integers(0, 4))]
    if method == "predict":
        payload = _random_predict_payload(rng)
    elif method == "predict_batch":
        payload = {"requests": [_random_predict_payload(rng) for _ in range(3)]}
    else:
        payload = {}
    return ApiRequest(
        method=method,
        payload=payload,
        request_id=f"call-{int(rng.integers(0, 10**6)):06d}",
        tenant=f"tenant-{int(rng.integers(0, 4))}",
        deadline_ms=float(rng.integers(1, 5000)) if rng.random() < 0.5 else None,
    )


class TestRequestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_stable(self, seed):
        rng = np.random.default_rng(seed)
        request = _random_request(rng)
        encoded = request.to_json()
        decoded = ApiRequest.from_json(encoded)
        assert decoded == request
        assert decoded.to_json() == encoded  # bytes, not just equality

    def test_defaults_fill_in(self):
        decoded = ApiRequest.from_json(json.dumps({"method": "health"}))
        assert decoded.version == API_VERSION
        assert decoded.tenant == "default"
        assert decoded.payload == {} and decoded.deadline_ms is None

    def test_malformed_json_is_invalid_argument(self):
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json("{not json")
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json(json.dumps({"payload": {}}))  # no method
        with pytest.raises(InvalidArgumentError):
            ApiRequest.from_json(json.dumps(["an", "array"]))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_invalid_argument(self, constant):
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            ApiRequest.from_json(
                '{"method":"predict","payload":{"inputs":[%s]}}' % constant
            )
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            ApiResponse.from_json('{"ok":true,"payload":{"x":%s}}' % constant)

    def test_negative_deadline_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ApiRequest("predict", deadline_ms=-1)


class TestResponseRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_success_byte_stable(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 5))
        response = PredictResponse(
            request_id="req-000001",
            model_id="tenant-1",
            logits=logits,
            classes=logits.argmax(axis=1),
            batched_with=int(rng.integers(1, 5)),
        )
        envelope = ApiResponse.success(
            ApiRequest("predict", request_id="call-1"),
            {"response": response.to_dict()},
        )
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded == envelope
        assert decoded.to_json() == encoded
        # The carried payload reconstructs the typed response bit-exactly
        # (float64 repr round-trips through JSON losslessly).
        rebuilt = PredictResponse.from_dict(decoded.payload["response"])
        assert np.array_equal(rebuilt.logits, logits)
        assert rebuilt.logits.dtype == logits.dtype

    @pytest.mark.parametrize("code,cls", sorted(ERROR_CODES.items()))
    def test_failure_byte_stable_per_code(self, code, cls):
        error = cls(f"{code} happened", details={"tenant": "t0", "n": 3})
        envelope = ApiResponse.failure(ApiRequest("predict", request_id="x"), error)
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded.to_json() == encoded
        assert decoded.http_status == cls.http_status
        rebuilt = decoded.to_error()
        assert type(rebuilt) is cls
        assert rebuilt.code == code
        assert rebuilt.message == error.message
        assert rebuilt.details == error.details
        assert rebuilt.retryable == cls.retryable

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partial_results_round_trip(self, seed):
        """An error envelope carrying partial batch results loses nothing."""
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((1, 4))
        ok_item = {
            "response": PredictResponse(
                request_id="req-1", model_id="tenant-0",
                logits=logits, classes=logits.argmax(axis=1),
            ).to_dict()
        }
        bad_item = {"error": NotFoundError("ghost tenant").to_dict()}
        envelope = ApiResponse.failure(
            ApiRequest("predict_batch", request_id="batch-1"),
            NotFoundError("ghost tenant"),
            partial={"results": [ok_item, bad_item], "completed": 1, "failed": 1},
        )
        encoded = envelope.to_json()
        decoded = ApiResponse.from_json(encoded)
        assert decoded.to_json() == encoded
        assert not decoded.ok and decoded.payload["completed"] == 1
        rebuilt = PredictResponse.from_dict(decoded.payload["results"][0]["response"])
        assert np.array_equal(rebuilt.logits, logits)
        item_error = error_from_dict(decoded.payload["results"][1]["error"])
        assert isinstance(item_error, NotFoundError)

    def test_raise_for_error(self):
        ok = ApiResponse.success(ApiRequest("health"), {})
        assert ok.raise_for_error() is ok
        bad = ApiResponse.failure(None, UnavailableError("down"))
        with pytest.raises(UnavailableError):
            bad.raise_for_error()
        with pytest.raises(ValueError):
            ok.to_error()


class TestErrorTaxonomy:
    def test_codes_are_stable(self):
        assert set(ERROR_CODES) == {
            "INVALID_ARGUMENT",
            "NOT_FOUND",
            "RESOURCE_EXHAUSTED",
            "UNAVAILABLE",
            "DEADLINE_EXCEEDED",
            "INTERNAL",
        }

    def test_legacy_compatibility_hierarchy(self):
        """The old except clauses keep catching the new taxonomy."""
        assert issubclass(InvalidArgumentError, ValueError)
        assert issubclass(NotFoundError, KeyError)
        assert issubclass(UnavailableError, RuntimeError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(ShardOverloadError, UnavailableError)
        assert issubclass(ShardKilledError, UnavailableError)

    def test_not_found_str_is_clean(self):
        # KeyError would repr() the message; the taxonomy keeps it readable.
        assert str(NotFoundError("no such model")) == "no such model"

    def test_error_from_exception_mapping(self):
        assert error_from_exception(KeyError("m")).code == "NOT_FOUND"
        assert error_from_exception(ValueError("v")).code == "INVALID_ARGUMENT"
        assert error_from_exception(TypeError("t")).code == "INVALID_ARGUMENT"
        assert error_from_exception(TimeoutError()).code == "DEADLINE_EXCEEDED"
        assert error_from_exception(RuntimeError("r")).code == "UNAVAILABLE"
        assert error_from_exception(OSError("boom")).code == "INTERNAL"
        # Native taxonomy errors pass through as the same object.
        native = ShardOverloadError("queue full")
        assert error_from_exception(native) is native

    def test_future_timeout_maps_to_deadline(self):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        assert error_from_exception(FutureTimeoutError()).code == "DEADLINE_EXCEEDED"

    def test_unknown_code_decodes_to_internal(self):
        rebuilt = error_from_dict({"code": "SOMETHING_NEW", "message": "hi"})
        assert isinstance(rebuilt, InternalError)
        assert rebuilt.details["original_code"] == "SOMETHING_NEW"

    def test_response_shaped_duck_typing(self):
        error = ResourceExhaustedError("slow down")
        assert error.ok is False and error.status == 429
        assert isinstance(error, ApiError)
