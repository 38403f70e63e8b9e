"""Errors raised at the simulated network boundary."""

from repro.util.errors import ReproError


class NetworkError(ReproError):
    """Base class for transport-level failures."""


class ServiceTimeoutError(NetworkError):
    """The remote side did not answer within the caller's timeout."""

    def __init__(self, endpoint: str, timeout: float) -> None:
        super().__init__(f"call to {endpoint!r} timed out after {timeout:.3f}s")
        self.endpoint = endpoint
        self.timeout = timeout


class ConnectivityError(NetworkError):
    """The client is offline (or the route to the endpoint is down)."""

    def __init__(self, endpoint: str) -> None:
        super().__init__(f"no connectivity to {endpoint!r}")
        self.endpoint = endpoint


class RemoteServiceError(NetworkError):
    """The remote service answered with an error (HTTP 5xx analogue)."""

    def __init__(self, endpoint: str, message: str, status: int = 500) -> None:
        super().__init__(f"{endpoint!r} returned {status}: {message}")
        self.endpoint = endpoint
        self.message = message
        self.status = status
